"""Predictor interface over the dense demand tensor.

The demand tensor has shape ``(days, slots, n)``: event counts per MGrid
per 30-minute slot, binned from the city's event table
(:func:`repro.core.model_error.demand_tensor`). A predictor sees only data
strictly before the target ``(day, slot)`` when predicting it.
"""
from itertools import groupby
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

    def predict(self, tensor: np.ndarray, day, slot) -> np.ndarray:
        """Predicted event count per MGrid for (day, slot), shape (n,); for
        arrays of days and slots (broadcast together), one forecast per
        sample, shape (samples, n). Only entries of ``tensor`` strictly
        before each (day, slot) may be read.
        """
        ...


def forecast_samples(day, slot) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The samples of a forecast call: ``day`` and ``slot`` broadcast
    together and flattened, and the shape its (samples, n) forecasts take
    (``(n,)`` for one scalar sample)."""
    d, s = np.broadcast_arrays(day, slot)
    return d.ravel(), s.ravel(), (*d.shape, -1)


def flat_index(day, slot, slots_per_day: int):
    """Global slot index of (day, slot) in the flattened (days*slots) series."""
    return day * slots_per_day + slot


def closeness_window(tensor: np.ndarray, day, slot, lags: int) -> np.ndarray:
    """The ``lags`` counts immediately before (day, slot), shape (lags, n);
    for arrays of samples ``day``/``slot``, shape (samples, lags, n).
    Wraps across midnight into the previous day (the series is contiguous)."""
    days, slots, n = tensor.shape
    g = np.asarray(flat_index(day, slot, slots))
    if (g < lags).any():
        raise ValueError(f"not enough history before day={day} slot={slot}")
    return tensor.reshape(days * slots, n)[g[..., None] + np.arange(-lags, 0)]


def period_days(day: int, days_back: int) -> list[int]:
    """The period view's days for ``day``: the previous ``days_back`` days."""
    lo = max(0, day - days_back)
    if lo == day:
        raise ValueError("no previous days available")
    return list(range(lo, day))


def trend_days(day: int, weeks_back: int) -> list[int]:
    """The trend view's days for ``day``: the same weekday of previous weeks."""
    ds = [day - 7 * w for w in range(1, weeks_back + 1) if day - 7 * w >= 0]
    # fall back to period when the history is shorter than a week
    return ds or period_days(day, min(day, 3))


def view_means(tensor: np.ndarray, day: np.ndarray, slot: np.ndarray, view_days) -> np.ndarray:
    """``tensor[view_days(d), t].mean(0)`` for every sample ``(d, t)`` of the
    arrays ``day``/``slot``, shape (samples, n). Each run of consecutive
    samples whose views lie at the same day offsets is gathered as one
    C-ordered (samples, k, n) block; numpy's mean over its axis 1 adds each
    sample's k rows in the order one sample's ``.mean(0)`` does, so the
    means are equal bit for bit."""
    offsets = {d: tuple(v - d for v in view_days(d)) for d in set(day.tolist())}
    out = np.empty((day.size, tensor.shape[2]))
    lo = 0
    for off, run in groupby(day.tolist(), offsets.get):
        hi = lo + sum(1 for _ in run)
        out[lo:hi] = tensor[day[lo:hi, None] + off, slot[lo:hi, None]].mean(1)
        lo = hi
    return out
