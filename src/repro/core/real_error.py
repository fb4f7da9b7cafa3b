"""Measured real error (paper Def. 3) — the quantity the bound dominates.

``E_r(i,j) = E|lambda_hat_ij - lambda_ij|`` with
``lambda_hat_ij = lambda_hat_i / m`` (the MGrid prediction spread uniformly
over its HGrids). We estimate the expectation over held-out days, exactly
as the paper estimates it over "the same time period on each day of the
previous one month". The actual per-HGrid counts of those days are binned
from the city's event table into a dense ``(days, fine_side^2)`` lattice,
so HGrids that saw no event are counted like any other.
"""
import numpy as np

from repro.core.grids import EventTable, GridSpec, mgrid_of_hgrid
from repro.models.base import Predictor


def hgrid_counts(events: EventTable, spec: GridSpec, *, slot: int, days: list[int]) -> np.ndarray:
    """Actual ``(len(days), fine_side^2)`` HGrid counts of ``slot`` on each of ``days``."""
    cells = spec.fine_side**2
    pos = np.zeros(max(days) + 1, dtype=np.int64)
    pos[days] = np.arange(len(days))
    out = events.bincount(
        spec, len(days) * cells, lambda b, h: pos[b.day] * cells + h, days=days, slot=slot
    )
    return out.reshape(len(days), cells)


def measured_real_error(
    events: EventTable,
    spec: GridSpec,
    tensor: np.ndarray,
    model: Predictor,
    *,
    slot: int,
    eval_days: list[int],
) -> float:
    """``sum_ij E_r(i,j)`` estimated over ``eval_days`` for one slot."""
    preds = model.predict(tensor, np.asarray(eval_days), slot)  # (k, n)
    lam_hat = preds[:, mgrid_of_hgrid(spec)] / spec.m  # lambda_hat_ij per (day, hgrid)
    counts = hgrid_counts(events, spec, slot=slot, days=eval_days)
    return float(np.abs(lam_hat - counts).sum()) / len(eval_days)


def measured_expression_error(
    events: EventTable, spec: GridSpec, *, slot: int, eval_days: list[int]
) -> float:
    """Empirical ``sum_ij E|lambda_bar_ij - lambda_ij|`` where
    ``lambda_bar_ij = lambda_i(day)/m`` uses the day's *actual* MGrid total
    (Def. 5) — the sanity twin of the analytic Algorithm-2 value."""
    counts = hgrid_counts(events, spec, slot=slot, days=eval_days)
    mg = mgrid_of_hgrid(spec)
    lam = np.stack([np.bincount(mg, c, minlength=spec.n) for c in counts])  # (k, n)
    return float(np.abs(lam[:, mg] / spec.m - counts).sum()) / len(eval_days)
