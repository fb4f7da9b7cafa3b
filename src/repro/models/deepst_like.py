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
    forecast_samples,
    period_days,
    trend_days,
    view_means,
)


class DeepSTLike:
    """Global least-squares blend of closeness / period / trend features."""

    name = "deepst"
    lags = 8  # closeness: the nearest 8 slots
    period_days = 8  # period: the same slot on the previous 8 days
    trend_weeks = 2  # trend: the same slot and weekday, 1 and 2 weeks back

    def __init__(self):
        self.coef_: np.ndarray | None = None

    def _features(self, tensor: np.ndarray, day, slot) -> np.ndarray:
        """Feature matrix (samples * n, 4) of the samples ``(day, slot)``,
        one (n rows) or arrays of them, sample-major: intercept, closeness,
        period, trend, each view the mean of its rows."""
        day, slot = np.atleast_1d(day, slot)
        close = closeness_window(tensor, day, slot, self.lags).mean(1)
        period = view_means(tensor, day, slot, lambda d: period_days(d, self.period_days))
        trend = view_means(tensor, day, slot, lambda d: trend_days(d, self.trend_weeks))
        return np.column_stack(
            [np.ones(close.size), close.ravel(), period.ravel(), trend.ravel()]
        )

    def _samples(self, tensor: np.ndarray, train_days: list[int], slot: int | None):
        """Features and targets of the training samples ``(d, t)``, day-major:
        ``t`` every slot or only ``slot``, skipping day 0 (the period view needs
        a previous day) and the first ``lags`` slots of the series."""
        days, slots, _ = tensor.shape
        ts = np.arange(slots) if slot is None else np.array([slot])
        d, t = (a.ravel() for a in np.meshgrid(train_days, ts, indexing="ij"))
        keep = (d >= 1) & (flat_index(d, t, slots) >= self.lags)
        d, t = d[keep], t[keep]
        return self._features(tensor, d, t), tensor[d, t].ravel()

    def fit(
        self, tensor: np.ndarray, train_days: list[int], slot: int | None = None
    ) -> "DeepSTLike":
        X, y = self._samples(tensor, train_days, slot)
        self.coef_, *_ = np.linalg.lstsq(X, y, rcond=None)
        return self

    def _blend(self, tensor: np.ndarray, day: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """(samples, n) fitted blend of the samples' features, each sample's
        (n, k) block times the weights as one forecast alone would take it."""
        X = self._features(tensor, day, slot)
        return X.reshape(day.size, tensor.shape[2], X.shape[1]) @ self.coef_

    def predict(self, tensor: np.ndarray, day, slot) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("fit() first")
        day, slot, shape = forecast_samples(day, slot)
        return np.maximum(self._blend(tensor, day, slot), 0.0).reshape(shape)
