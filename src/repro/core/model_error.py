"""Model error: total E_m ~ n * MAE(f) (paper §III-C, Eq. 20).

The per-MGrid demand series is a ``(days, slots, n)`` tensor binned from the
city's event table (:func:`demand_tensor`; Spark oracle :func:`demand_counts`)
— driver-sized by design (n <= a few thousand MGrids x ~1.6k slots). Eq. 20
shows ``sum_ij E_m(i,j) = sum_i E|lambda_hat_i - lambda_i| ~ n * MAE(f)``;
we estimate the right-hand side directly as the summed per-MGrid absolute
error averaged over validation days.
"""
import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grids import EventTable, GridSpec, mgrid_of_hgrid, with_grid_ids
from repro.models.base import Predictor


def demand_counts(events: DataFrame, spec: GridSpec) -> DataFrame:
    """Event counts per (day, slot, mgrid) in Spark — the test oracle of
    :func:`demand_tensor`."""
    return (
        with_grid_ids(events, spec)
        .groupBy("day", "slot", "mgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def demand_tensor(
    events: EventTable, spec: GridSpec, *, days: int, slots: int
) -> np.ndarray:
    """Dense ``(days, slots, n)`` count tensor (missing combinations are 0)."""
    mg = mgrid_of_hgrid(spec)
    t = events.bincount(
        spec, days * slots * spec.n, lambda b, h: (b.day * slots + b.slot) * spec.n + mg[h]
    )
    return t.reshape(days, slots, spec.n)


def total_model_error(
    tensor: np.ndarray, model: Predictor, *, eval_days: list[int], slot: int
) -> float:
    """``sum_i E|lambda_hat_i - lambda_i|`` for one slot, averaged over
    ``eval_days`` — the paper's ``n * MAE(f)`` (Eq. 20). The model must
    already be fitted; eval days must be disjoint from its training days."""
    preds = model.predict(tensor, np.asarray(eval_days), slot)
    actual = tensor[eval_days, slot, :]
    return float(np.abs(preds - actual).mean(axis=0).sum())


def mae(tensor: np.ndarray, model: Predictor, *, eval_days: list[int], slot: int) -> float:
    """Plain per-sample MAE(f) of the fitted model on ``eval_days`` x grids."""
    preds = model.predict(tensor, np.asarray(eval_days), slot)
    actual = tensor[eval_days, slot, :]
    return float(np.abs(preds - actual).mean())
