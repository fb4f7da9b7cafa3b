"""DeepST substitute: linear closeness/period/trend blend (DESIGN.md §4).

DeepST (Zhang et al., AAAI'17) fuses three views of the history —
closeness (nearest 8 slots), period (same slot, previous 8 days), trend
(same slot, previous weeks) — through a residual CNN. This substitute keeps
the same information diet and fuses the three views with least-squares
weights fitted per city; it lands between the closeness-only MLP and the
spatially-smoothed Dmvst substitute, which is the ordering §V-C relies on.
"""
import numpy as np

from repro.models.base import (
    closeness_window,
    flat_index,
    period_values,
    trend_values,
)


class DeepSTLike:
    """Global least-squares blend of closeness / period / trend features."""

    name = "deepst"
    lags = 8  # closeness: the nearest 8 slots
    period_days = 8  # period: the same slot on the previous 8 days
    trend_weeks = 2  # trend: the same slot and weekday, 1 and 2 weeks back

    def __init__(self):
        self.coef_: np.ndarray | None = None

    def _features(self, tensor: np.ndarray, day: int, slot: int) -> np.ndarray:
        """Feature matrix (n, 4): intercept, closeness, period, trend."""
        close = closeness_window(tensor, day, slot, self.lags).mean(0)
        period = period_values(tensor, day, slot, self.period_days).mean(0)
        trend = trend_values(tensor, day, slot, self.trend_weeks).mean(0)
        return np.column_stack([np.ones_like(close), close, period, trend])

    def _samples(self, tensor: np.ndarray, train_days: list[int], slot: int | None):
        days, slots, _ = tensor.shape
        Xs, ys = [], []
        for d in train_days:
            if d < 1:  # need at least one previous day for the period view
                continue
            for t in range(slots) if slot is None else (slot,):
                if flat_index(d, t, slots) < self.lags:
                    continue
                Xs.append(self._features(tensor, d, t))
                ys.append(tensor[d, t, :])
        return np.concatenate(Xs), np.concatenate(ys)

    def fit(
        self, tensor: np.ndarray, train_days: list[int], slot: int | None = None
    ) -> "DeepSTLike":
        X, y = self._samples(tensor, train_days, slot)
        self.coef_, *_ = np.linalg.lstsq(X, y, rcond=None)
        return self

    def predict(self, tensor: np.ndarray, day: int, slot: int) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("fit() first")
        return np.maximum(self._features(tensor, day, slot) @ self.coef_, 0.0)
