"""Measured real error (paper Def. 3) — the quantity the bound dominates.

``E_r(i,j) = E|lambda_hat_ij - lambda_ij|`` with
``lambda_hat_ij = lambda_hat_i / m`` (the MGrid prediction spread uniformly
over its HGrids). We estimate the expectation over held-out days, exactly
as the paper estimates it over "the same time period on each day of the
previous one month". Zero-count HGrids are handled in closed form instead
of materialising the full lattice per day: a day's HGrids of MGrid i that
saw no event each contribute |lambda_hat_i/m - 0|.
"""
import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.grids import GridSpec
from repro.core.model_error import hgrid_counts_for_days, predictions_for
from repro.models.base import Predictor


def measured_real_error(
    spark: SparkSession,
    events: DataFrame,
    spec: GridSpec,
    tensor: np.ndarray,
    model: Predictor,
    *,
    slot: int,
    eval_days: list[int],
) -> float:
    """``sum_ij E_r(i,j)`` estimated over ``eval_days`` for one slot."""
    preds = predictions_for(tensor, model, eval_days, slot)  # (k, n)
    counts = hgrid_counts_for_days(spark, events, spec, slot=slot, days=eval_days)
    day_pos = {d: k for k, d in enumerate(eval_days)}
    per_h = preds / spec.m  # lambda_hat_ij per (day, mgrid)
    # start from the all-zero-HGrid total: sum_i m * (pred_i/m) = sum_i pred_i
    total = float(preds.sum())
    if len(counts):
        k = counts["day"].map(day_pos).to_numpy(int)
        mg = counts["mgrid"].to_numpy(int)
        c = counts["cnt"].to_numpy(float)
        ph = per_h[k, mg]
        total += float((np.abs(ph - c) - ph).sum())
    return total / len(eval_days)


def measured_expression_error(
    spark: SparkSession,
    events: DataFrame,
    spec: GridSpec,
    *,
    slot: int,
    eval_days: list[int],
) -> float:
    """Empirical ``sum_ij E|lambda_bar_ij - lambda_ij|`` where
    ``lambda_bar_ij = lambda_i(day)/m`` uses the day's *actual* MGrid total
    (Def. 5) — the sanity twin of the analytic Algorithm-2 value."""
    counts = hgrid_counts_for_days(spark, events, spec, slot=slot, days=eval_days)
    total = 0.0
    for d in eval_days:
        day = counts[counts["day"] == d]
        lam_i = np.zeros(spec.n)
        if len(day):
            np.add.at(lam_i, day["mgrid"].to_numpy(int), day["cnt"].to_numpy(float))
        bar = lam_i / spec.m
        total += float(lam_i.sum())  # all-zero baseline: m * (lam_i/m) per MGrid
        if len(day):
            b = bar[day["mgrid"].to_numpy(int)]
            c = day["cnt"].to_numpy(float)
            total += float((np.abs(b - c) - b).sum())
    return total / len(eval_days)
