"""Table IV — performance of the optimisation searching algorithms.

Per city, each of the 48 time slots is an independent OGSS instance (the
optimal n differs per slot because expression error does, §V-E). For every
algorithm — Ternary Search, Iterative Method, Brute-force — we run the
search on every slot with a *fresh* bound evaluator over the city's count
cache (filled for every swept side before the searches) and report:

* **cost** — total wall-clock seconds of the algorithm's bound evaluations
  (model fit, model error and expression-error kernel per (n, slot));
* **probability** — fraction of slots where the found n equals the
  brute-force optimum;
* **OR (optimal ratio)** — POLAR's served orders on the test day when
  positioned with the found-n forecasts, divided by served orders with the
  optimal-n forecasts (summed over the evaluated slots), mirroring the
  paper's o_a / o_r definition.
"""
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.search import brute_force, iterative_method, ternary_search
from repro.core.upper_bound import UpperBoundEvaluator
from repro.dispatch.simulator import allocate, day_orders, spread_to_cells
from repro.experiments.config import ITERATIVE_B, CityData
from repro.models import MODELS


@dataclass
class _ORMeter:
    """Served orders of a single-slot POLAR matching at grid side s —
    the o_a / o_r measurement (not charged to any search's cost)."""

    data: CityData
    model_name: str
    P: int
    n_drivers: int

    def __post_init__(self):
        st = self.data.settings
        orders = day_orders(self.data.counts.table, self.data.cfg, day=st.test_day, P=self.P)
        self._cells_by_slot = {
            int(s): g["cell"].to_numpy(int) for s, g in orders.groupby("slot")
        }
        self._served: dict[tuple[int, int], int] = {}

    def served(self, s: int, slot: int) -> int:
        key = (s, slot)
        if key in self._served:
            return self._served[key]
        st = self.data.settings
        tensor = self.data.counts.tensor(s)
        model = MODELS[self.model_name]().fit(tensor, st.train_days, slot)
        pred = model.predict(tensor, st.test_day, slot)
        alloc = allocate(spread_to_cells(pred, self.data.counts.spec(s), self.P), self.n_drivers)
        cells = self._cells_by_slot.get(slot, np.empty(0, dtype=int))
        demand = np.bincount(cells, minlength=self.P * self.P)
        val = int(np.minimum(alloc, demand).sum())
        self._served[key] = val
        return val


def run_table4(
    spark: SparkSession,
    data: CityData,
    *,
    model_name: str = "deepst",
    slots: list[int] | None = None,
    P: int | None = None,
    n_drivers: int | None = None,
) -> pd.DataFrame:
    """Table IV rows for one city (cost, probability, OR per algorithm)."""
    st = data.settings
    slots = list(range(st.slots)) if slots is None else slots
    P = st.N_side if P is None else P
    daily = int(data.cfg.daily_orders * st.sf)
    n_drivers = max(20, int(0.7 * daily / st.slots)) if n_drivers is None else n_drivers

    algos = {
        "Ternary Search": lambda fn: ternary_search(fn, st.s_min, st.s_max),
        "Iterative Method": lambda fn: iterative_method(
            fn, st.s_min, st.s_max, p=st.s_default, b=ITERATIVE_B
        ),
        "Brute-force Search": lambda fn: brute_force(fn, st.s_min, st.s_max),
    }
    # brute force reads every side's counts anyway: build them once, untimed,
    # so each search's cost is its bound evaluations over a shared cache
    for s in range(st.s_min, st.s_max + 1):
        data.counts.tensor(s)
        data.counts.alphas(s)
    found: dict[str, dict[int, int]] = {}
    stats: dict[str, dict] = {}
    for name, algo in algos.items():
        evaluator = UpperBoundEvaluator.for_city(spark, data, MODELS[model_name])
        t0 = time.perf_counter()
        per_slot = {}
        for slot in slots:
            per_slot[slot] = algo(evaluator.bound_fn(slot)).s_opt
        found[name] = per_slot
        stats[name] = {
            "cost_s": time.perf_counter() - t0,
            "bound_calls": evaluator.calls,
        }

    optimal = found["Brute-force Search"]
    meter = _ORMeter(data, model_name, P, n_drivers)
    rows = []
    for name in algos:
        hits = sum(found[name][t] == optimal[t] for t in slots)
        o_a = sum(meter.served(found[name][t], t) for t in slots)
        o_r = sum(meter.served(optimal[t], t) for t in slots)
        rows.append(
            {
                "city": data.cfg.name,
                "algorithm": name,
                "cost_s": stats[name]["cost_s"],
                "bound_calls": stats[name]["bound_calls"],
                "probability": hits / len(slots),
                "OR": (o_a / o_r) if o_r else 1.0,
            }
        )
    return pd.DataFrame(rows)
