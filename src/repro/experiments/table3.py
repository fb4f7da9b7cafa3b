"""Table III — promotion of prediction-based algorithms at the tuned n.

The paper reruns POLAR, LS and DAIF at the n found by GridTuner instead of
the original papers' defaults (16x16 or 20x20 of 128) and reports the
improvement per (metric, algorithm). Here: the original sides are the
paper's values rescaled to our lattice, the tuned side comes from the
Iterative Method over the bound (the paper's preferred search), and every
algorithm is replayed on the synthetic test day at both grid sizes. The
forecasts come from the DeepST substitute throughout.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.model_error import demand_tensor  # noqa: F401 — patched by perfbench/tracer.py
from repro.core.upper_bound import UpperBoundEvaluator
from repro.dispatch.simulator import (
    DispatchMetrics,
    day_orders,
    ls_weights,
    mean_fare_by_cell,
    polar_weights,
    simulate_day,
)
from repro.experiments.config import SEARCHES, CityData
from repro.models import DeepSTLike
from repro.routing.daif import run_daif_day


@dataclass(frozen=True)
class CaseStudyRun:
    """All §V-D metrics for one grid side s on the test day."""

    s: int
    polar: DispatchMetrics
    ls: DispatchMetrics
    daif_served: int
    daif_cost: float


def _predictions_by_slot(data: CityData, s: int) -> np.ndarray:
    """(slots, n) DeepST-substitute forecasts for the test day at grid side s
    (model trained once per s on all slots, as the original systems train
    theirs)."""
    st = data.settings
    tensor = data.counts.tensor(s)
    model = DeepSTLike().fit(tensor, st.train_days)
    return model.predict(tensor, st.test_day, np.arange(st.slots))


def case_study_run(
    # unread: perfbench binds it (tests/test_perfbench_contract.py, ROADMAP item 2)
    spark: SparkSession,
    data: CityData,
    s: int,
    *,
    oracle: bool = False,
) -> CaseStudyRun:
    """Replay POLAR / LS / DAIF on the test day with forecasts at side s,
    positioning on the HGrid lattice (P = N_side) with a fleet sized from
    the day's order count.

    ``oracle=True`` replaces the forecast with the test day's *actual*
    per-MGrid counts (the paper's "real order data" mode: model error 0,
    real error = expression error only).
    """
    st = data.settings
    P = st.N_side
    orders = day_orders(data.counts.table, data.cfg, day=st.test_day, P=P)
    spec = data.counts.spec(s)
    if oracle:
        preds = data.counts.tensor(s)[st.test_day]  # actual counts
    else:
        preds = _predictions_by_slot(data, s)
    n_drivers = max(50, int(0.02 * len(orders)))
    n_vehicles = max(30, int(0.008 * len(orders)))
    w_polar = polar_weights(preds, spec, P)
    fares = mean_fare_by_cell(data.counts.table, data.cfg, P=P, train_days=st.train_days)
    w_ls = ls_weights(preds, spec, P, fares)
    polar = simulate_day(orders, w_polar, n_drivers=n_drivers)
    ls = simulate_day(orders, w_ls, n_drivers=n_drivers)
    daif = run_daif_day(
        orders,
        w_polar,
        width_km=data.cfg.width_km,
        height_km=data.cfg.height_km,
        n_vehicles=n_vehicles,
    )
    return CaseStudyRun(
        s=s, polar=polar, ls=ls, daif_served=daif.served, daif_cost=daif.unified_cost
    )


def find_optimal_s(data: CityData) -> int:
    """GridTuner's tuned side: Iterative Method (Alg. 5) over the DeepST
    substitute's bound at the default slot."""
    st = data.settings
    evaluator = UpperBoundEvaluator.for_city(data, DeepSTLike)
    return SEARCHES["Iterative Method"](evaluator.bound_fn(st.default_slot), st).s_opt


# (metric, algorithm, original side as a fraction of the paper's 128-lattice)
TABLE3_ROWS = (
    ("Served Order Number", "POLAR", 16),
    ("Total Revenue", "POLAR", 16),
    ("Total Revenue", "LS", 20),
    ("Served Order Number", "LS", 20),
    ("Unified Cost", "DAIF", 16),
    ("Served Requests", "DAIF", 20),
)


def run_table3(data: CityData, *, optimal_s: int | None = None) -> pd.DataFrame:
    """Produce Table III: one row per (metric, algorithm) with the original
    n, the tuned n, both metric values, and the improvement ratio."""
    st = data.settings
    if optimal_s is None:
        optimal_s = find_optimal_s(data)
    runs: dict[int, CaseStudyRun] = {}

    def at(s: int) -> CaseStudyRun:
        if s not in runs:
            runs[s] = case_study_run(None, data, s)
        return runs[s]

    def metric(run: CaseStudyRun, metric_name: str, algo: str) -> float:
        if algo == "POLAR":
            return run.polar.served if metric_name.startswith("Served") else run.polar.revenue
        if algo == "LS":
            return run.ls.served if metric_name.startswith("Served") else run.ls.revenue
        return run.daif_cost if metric_name == "Unified Cost" else run.daif_served

    rows = []
    for metric_name, algo, paper_orig in TABLE3_ROWS:
        s_orig = max(1, round(paper_orig * st.N_side / 128))
        v_orig = metric(at(s_orig), metric_name, algo)
        v_opt = metric(at(optimal_s), metric_name, algo)
        lower_better = metric_name == "Unified Cost"
        improve = (v_orig - v_opt) / v_orig if lower_better else (v_opt - v_orig) / v_orig
        rows.append(
            {
                "metric": metric_name,
                "algorithm": algo,
                "original_n": f"{s_orig}x{s_orig}",
                "optimal_n": f"{optimal_s}x{optimal_s}",
                "value_original": v_orig,
                "value_optimal": v_opt,
                "improve_ratio": improve,
            }
        )
    return pd.DataFrame(rows)
