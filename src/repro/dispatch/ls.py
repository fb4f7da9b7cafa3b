"""LS-style dispatcher policy (substitute for Cheng et al., ICDE'19/'21).

LS dispatches with a queueing-theoretic objective of maximising total
*revenue*; its positioning weight is therefore the predicted demand scaled
by each region's expected fare, estimated from the training days' mean
revenue per cell (smoothed toward the city mean so cold cells do not zero
out), binned from the city's event table.
"""
import numpy as np

from repro.core.grids import EventTable, GridSpec, grid_spec
from repro.dispatch.simulator import spread_to_cells
from repro.synth_data import CityConfig

#: pseudo-count of city-mean fares added to every cell's fare history
FARE_SMOOTH = 8.0


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
    """Revenue-seeking weights: forecast demand x expected fare per cell."""
    return np.stack([spread_to_cells(p, spec, P) * fare_by_cell for p in pred_by_slot])
