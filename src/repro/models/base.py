"""Predictor interface over the dense demand tensor.

The demand tensor has shape ``(days, slots, n)``: event counts per MGrid
per 30-minute slot, binned from the city's event table
(:func:`repro.core.model_error.demand_tensor`). A predictor sees only data
strictly before the target ``(day, slot)`` when predicting it.
"""
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Predictor(Protocol):
    """Per-MGrid next-slot demand predictor."""

    name: str

    def fit(
        self, tensor: np.ndarray, train_days: list[int], slot: int | None = None
    ) -> "Predictor":
        """Learn from ``train_days`` (indices into axis 0). With ``slot``
        set, train only on that slot's samples — each time slot is an
        independent tuning problem in the paper's §V-E search experiments,
        where every UpperBound call trains its own model."""
        ...

    def predict(self, tensor: np.ndarray, day: int, slot: int) -> np.ndarray:
        """Predicted event count per MGrid for (day, slot), shape (n,).
        Only entries of ``tensor`` strictly before (day, slot) may be read.
        """
        ...


def flat_index(day: int, slot: int, slots_per_day: int) -> int:
    """Global slot index of (day, slot) in the flattened (days*slots) series."""
    return day * slots_per_day + slot


def closeness_window(tensor: np.ndarray, day: int, slot: int, lags: int) -> np.ndarray:
    """The ``lags`` counts immediately before (day, slot), shape (lags, n).
    Wraps across midnight into the previous day (the series is contiguous)."""
    days, slots, n = tensor.shape
    flat = tensor.reshape(days * slots, n)
    g = flat_index(day, slot, slots)
    if g < lags:
        raise ValueError(f"not enough history before day={day} slot={slot}")
    return flat[g - lags : g]


def period_values(tensor: np.ndarray, day: int, slot: int, days_back: int) -> np.ndarray:
    """Counts at the same slot on the previous ``days_back`` days, (k, n)."""
    lo = max(0, day - days_back)
    if lo == day:
        raise ValueError("no previous days available")
    return tensor[lo:day, slot, :]


def trend_values(tensor: np.ndarray, day: int, slot: int, weeks_back: int) -> np.ndarray:
    """Counts at the same slot on the same weekday of previous weeks, (k, n)."""
    ds = [day - 7 * w for w in range(1, weeks_back + 1) if day - 7 * w >= 0]
    if not ds:
        # fall back to period when the history is shorter than a week
        return period_values(tensor, day, slot, min(day, 3))
    return tensor[ds, slot, :]
