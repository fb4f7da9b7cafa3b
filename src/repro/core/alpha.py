"""Estimation of the HGrid Poisson means alpha_ij and the unevenness metric
D_alpha(N) (paper §III-A).

``alpha_ij`` is the mean number of events in HGrid ``r_ij`` for one time
slot, estimated — as in the paper — as the average count over the same slot
of the training weekdays ("the average number of events at the same period
of all workdays in last one month", §V-B).

The estimate is one numpy binning per grid size over all slots of the
city's event table (:func:`alpha_by_hgrid`), like ``demand_tensor``; the
Spark aggregation :func:`alpha_counts` is its test oracle. Every consumer
(the Algorithm-3 evaluator, the error curves, N-selection) takes one row
``[slot]`` of that table.

``D_alpha(N) = sum_ij |alpha_ij - mean(alpha)|`` (Eq. 2) measures how
uneven the spatial distribution is; Theorem III.1 shows it saturates once
HGrids are internally uniform, which is how a suitable N is selected.
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grids import EventTable, GridSpec, grid_spec, mgrid_of_hgrid, with_grid_ids
from repro.synth_data import SLOTS_PER_DAY

#: §III-A saturation test: D_alpha has saturated once a doubling of N_side
#: grows it by less than this fraction
SATURATION_TOL = 0.10


def weekday_days(days: range | list[int]) -> list[int]:
    """Weekdays among ``days`` under the generator's convention (day 0 = Monday)."""
    return [d for d in days if d % 7 < 5]


def alpha_counts(events: DataFrame, spec: GridSpec, *, train_days: list[int]) -> DataFrame:
    """Event counts per (slot, hgrid) summed over ``train_days`` in Spark
    (zero cells omitted) — the test oracle of :func:`alpha_by_hgrid`."""
    if not train_days:
        raise ValueError("train_days must be non-empty")
    return (
        with_grid_ids(events, spec)
        .where(F.col("day").isin([int(d) for d in train_days]))
        .groupBy("slot", "hgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def alpha_by_hgrid(
    events: EventTable, spec: GridSpec, *, train_days: list[int], slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(slots, fine_side^2)`` alphas and the HGrid -> MGrid map.

    alpha = total events over ``train_days`` at the slot divided by the
    number of training days (days with zero events count in the mean);
    HGrids that never saw an event have alpha 0.
    """
    if not train_days:
        raise ValueError("train_days must be non-empty")
    cells = spec.fine_side**2
    counts = events.bincount(spec, slots * cells, lambda b, h: b.slot * cells + h, days=train_days)
    return counts.reshape(slots, cells) / len(train_days), mgrid_of_hgrid(spec)


def d_alpha(alphas: np.ndarray) -> float:
    """``D_alpha(N) = sum_ij |alpha_ij - alpha_bar|`` (Eq. 2) over the lattice."""
    return float(np.abs(alphas - alphas.mean()).sum())


@dataclass(frozen=True)
class NSelection:
    """Result of the §III-A procedure: D_alpha per candidate N_side and the
    chosen N_side (first candidate past which relative growth of D_alpha,
    per doubling, falls under ``SATURATION_TOL``)."""

    candidates: list[int]
    d_values: list[float]
    chosen_N_side: int


def select_N(
    events: EventTable,
    cfg,
    *,
    slot: int,
    train_days: list[int],
    candidates: list[int] = (8, 16, 32, 64, 128),
) -> NSelection:
    """Pick N by the saturation of D_alpha(N) (paper §III-A / Appendix C).

    Computes D_alpha on an ``N_side x N_side`` lattice for each candidate
    (n_side = N_side here, i.e. nm = N) and picks the first N_side whose
    next doubling grows D_alpha by less than ``SATURATION_TOL`` relatively — the
    "turning point" of Fig. 14. Falls back to the largest candidate.
    """
    cands = sorted(candidates)
    d_values = []
    for s in cands:
        spec = grid_spec(cfg, s, s)
        alphas, _ = alpha_by_hgrid(events, spec, train_days=train_days, slots=SLOTS_PER_DAY)
        d_values.append(d_alpha(alphas[slot]))
    chosen = cands[-1]
    for i in range(len(cands) - 1):
        prev = d_values[i]
        if prev > 0 and (d_values[i + 1] - prev) / prev < SATURATION_TOL:
            chosen = cands[i]
            break
    return NSelection(cands, d_values, chosen)
