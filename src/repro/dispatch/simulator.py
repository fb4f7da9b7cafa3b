"""Slot-stepped order-dispatch simulator.

The day's orders are read from the city's event table (:func:`day_orders`).
World model (deliberately minimal, see DESIGN.md §4): the city is a
``P x P`` positioning lattice (fixed across candidate grid sizes n, so
matching granularity never changes while the *prediction* granularity
does). Each 30-minute slot:

1. **Pre-positioning** (stage 1 of the two-stage dispatchers): every idle
   driver is placed on a cell; the per-cell driver budget is proportional
   to the algorithm's weight vector (POLAR: predicted order count; LS:
   predicted revenue), rounded by largest remainder.
2. **Matching** (stage 2): orders of the slot are matched to idle drivers
   *in the same cell* — the cell size plays the role of the pickup-radius
   constraint; highest-revenue orders are served first when capacity
   binds. :func:`matched` is this rule (a cell serves its first
   ``alloc[c]`` orders); Table IV's optimal ratio counts the same rule.
   The revenue order is the one pandas' ``sort_values(ascending=False)``
   gives: the slot's rows, in frame order, reversed, ``argsort`` with the
   non-stable quicksort, reversed back. That sort fixes which of two
   equal-revenue orders in one cell is served.
3. Matched drivers are busy for ``ceil(trip_km / KM_PER_SLOT)`` slots and
   are then repositioned freely, like every idle driver.

The property the paper's case study relies on emerges from 1+2: weights
spread uniformly over huge MGrids waste drivers on empty cells (small n),
noisy per-grid predictions send them to the wrong cells (large n).

The two policies are the first stage of the dispatchers the case study
replays, each the forecast spread uniformly over every MGrid
(:func:`spread_to_cells`, the paper's maximum-entropy assumption):

* POLAR (Tong et al., VLDB'17) maximises the number of served orders, so
  it pre-assigns drivers by the *predicted order count*
  (:func:`polar_weights`);
* LS (Cheng et al., ICDE'19) maximises total *revenue*, so it scales that
  count by each cell's expected fare, the training days' mean fare per
  cell smoothed toward the city mean so cold cells do not zero out
  (:func:`ls_weights`, :func:`mean_fare_by_cell`).
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.grids import EventTable, GridSpec, grid_spec, hgrid_ids
from repro.synth_data import CityConfig

#: distance a matched driver covers per 30-minute slot (25 km/h)
KM_PER_SLOT = 12.5
#: pseudo-count of city-mean fares added to every cell's fare history
FARE_SMOOTH = 8.0


@dataclass(frozen=True)
class DispatchMetrics:
    """Day-level outcome of a dispatcher run."""

    served: int
    revenue: float
    arrived: int


def day_orders(
    events: EventTable, cfg: CityConfig, *, day: int, P: int
) -> pd.DataFrame:
    """One day's orders on the P-lattice: (slot, cell, trip_km, revenue, x,
    y, dest_x, dest_y), in the event table's generation order.
    The order is pinned because :func:`simulate_day` sorts each slot's rows
    by revenue with numpy's non-stable quicksort, in reverse frame order,
    and then matches greedily: which of two equal-revenue orders is served,
    and so Table III, depends on it."""
    spec = grid_spec(cfg, P, P)  # fine lattice == P-lattice
    ev = events.rows(events.day == day)
    return pd.DataFrame({
        "slot": ev.slot,
        "cell": hgrid_ids(ev.x, ev.y, spec),
        "trip_km": np.sqrt((ev.dest_x - ev.x) ** 2 + (ev.dest_y - ev.y) ** 2),
        "revenue": ev.revenue, "x": ev.x, "y": ev.y, "dest_x": ev.dest_x, "dest_y": ev.dest_y,
    })


def spread_to_cells(pred_mgrid: np.ndarray, spec: GridSpec, P: int) -> np.ndarray:
    """Uniformly spread per-MGrid values onto the P-lattice (the paper's
    maximum-entropy within-MGrid assumption): cell value = value of its
    MGrid / (P-cells per MGrid). The n MGrid values are the last axis of
    ``pred_mgrid``, which becomes a length P*P axis."""
    if pred_mgrid.shape[-1:] != (spec.n,):
        raise ValueError(f"expected {spec.n} MGrid values, got shape {pred_mgrid.shape}")
    # map by cell centre: P-cell k spans [k/P, (k+1)/P) in unit coords
    idx = np.minimum(((2 * np.arange(P) + 1) * spec.n_side) // (2 * P), spec.n_side - 1)
    mg = (idx[:, None] * spec.n_side + idx[None, :]).ravel()  # row-major (y, x)
    cells_per_mgrid = np.bincount(mg, minlength=spec.n).astype(float)
    return pred_mgrid[..., mg] / cells_per_mgrid[mg]


def polar_weights(pred_by_slot: np.ndarray, spec: GridSpec, P: int) -> np.ndarray:
    """POLAR's weights: MGrid count forecasts, n on the last axis (one row
    per slot), spread to P*P cell weights."""
    return spread_to_cells(pred_by_slot, spec, P)


def mean_fare_by_cell(
    events: EventTable, cfg: CityConfig, *, P: int, train_days: list[int]
) -> np.ndarray:
    """Per-P-cell expected fare from training history (shrunk to the mean)."""
    spec = grid_spec(cfg, P, P)
    fares = events.bincount(spec, P * P, days=train_days, weights="revenue")
    counts = events.bincount(spec, P * P, days=train_days)
    city_mean = fares.sum() / max(counts.sum(), 1.0)
    return (fares + FARE_SMOOTH * city_mean) / (counts + FARE_SMOOTH)


def ls_weights(
    pred_by_slot: np.ndarray, spec: GridSpec, P: int, fare_by_cell: np.ndarray
) -> np.ndarray:
    """LS's revenue-seeking weights: POLAR's x expected fare per cell."""
    return spread_to_cells(pred_by_slot, spec, P) * fare_by_cell


def allocate(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` drivers to cells; with
    no positive weight anywhere, the drivers are spread evenly."""
    w = np.clip(weights, 0.0, None)
    s = w.sum()
    if total <= 0:
        return np.zeros(w.size, dtype=int)
    if s <= 0:  # degenerate: nothing predicted anywhere
        out = np.full(w.size, total // w.size)
        out[: total % w.size] += 1
        return out
    quota = w / s * total
    base = np.floor(quota).astype(int)
    rem = total - base.sum()
    if rem > 0:
        order = np.argsort(-(quota - base), kind="stable")
        base[order[:rem]] += 1
    return base


def matched(alloc: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Mask of the orders served when cell ``c`` serves its first
    ``alloc[c]`` orders: each order's rank among the earlier orders of its
    cell (a stable sort keeps the given order) against its cell's drivers."""
    order = np.argsort(cells, kind="stable")
    grouped = cells[order]
    rank = np.empty(cells.size, dtype=int)
    rank[order] = np.arange(cells.size) - np.searchsorted(grouped, grouped)
    return rank < alloc[cells]


def simulate_day(
    orders: pd.DataFrame,
    weights_by_slot: np.ndarray,
    *,
    n_drivers: int,
) -> DispatchMetrics:
    """Run one day of two-stage dispatch (fully deterministic).

    ``orders`` — frame from :func:`day_orders`; ``weights_by_slot`` —
    (slots, P*P) pre-positioning weights (the dispatcher's policy), one row
    per slot of the day. Idle drivers are repositioned freely each slot, so
    only the idle/busy budget persists across slots (busy time = trip
    distance / ``KM_PER_SLOT``). Orders in slots past the weight array
    arrive but are never served.
    """
    slot = orders["slot"].to_numpy()
    cell = orders["cell"].to_numpy(int)
    fare = orders["revenue"].to_numpy()
    trip_km = orders["trip_km"].to_numpy()
    by_slot = np.argsort(slot, kind="stable")  # each slot's rows in frame order
    bounds = np.searchsorted(slot[by_slot], np.arange(len(weights_by_slot) + 1))
    free_at = np.zeros(n_drivers, dtype=int)
    served = 0
    revenue = 0.0
    for t in range(len(weights_by_slot)):
        rows = by_slot[bounds[t]:bounds[t + 1]][::-1]
        idle = np.flatnonzero(free_at <= t)
        if idle.size == 0 or rows.size == 0:
            continue
        # highest revenue first: reverse, quicksort, reverse back
        rows = rows[np.argsort(fare[rows], kind="quicksort")][::-1]
        alloc = allocate(weights_by_slot[t], idle.size)  # drivers per cell
        taken = rows[matched(alloc, cell[rows])]
        served += taken.size
        revenue += float(fare[taken].sum())
        busy = np.maximum(np.ceil(trip_km[taken] / KM_PER_SLOT), 1).astype(int)
        free_at[idle[:taken.size]] = t + busy
    return DispatchMetrics(served=served, revenue=revenue, arrived=len(orders))
