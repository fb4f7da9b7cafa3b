"""Dmvst-Net substitute: CPT blend + spatial smoothing + per-grid shrinkage.

Dmvst-Net (Yao et al., AAAI'18) adds a local-CNN spatial view and a
semantic view on top of temporal modelling, and is the most accurate model
in the paper. This substitute adds to the DeepST-like blend (a) a
neighbour-smoothed period feature — the 3x3 MGrid-lattice mean, standing in
for the local spatial view — and (b) a shrunken per-grid residual
correction, standing in for per-region semantic fitting. It is the
strongest of the three substitutes (verified by tests).
"""
import numpy as np

from repro.models.base import forecast_samples
from repro.models.deepst_like import DeepSTLike


def _smooth_3x3(values: np.ndarray, side: int) -> np.ndarray:
    """Mean over the 3x3 neighbourhood on a ``side x side`` grid lattice,
    for each row of ``values`` (shape (..., side * side))."""
    f = values.reshape(*values.shape[:-1], side, side)
    p = np.pad(f, [(0, 0)] * (f.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    out = sum(
        p[..., 1 + dy : 1 + dy + side, 1 + dx : 1 + dx + side]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
    ) / 9.0
    return out.reshape(values.shape)


class DmvstLike(DeepSTLike):
    """DeepST-like features + spatial smoothing + shrunken per-grid bias."""

    name = "dmvst"
    shrink_tau = 24.0  # residual samples at which the bias keeps half its weight

    def __init__(self):
        super().__init__()
        self.bias_: np.ndarray | None = None

    def _features(self, tensor: np.ndarray, day, slot) -> np.ndarray:
        base = super()._features(tensor, day, slot)  # (samples * n, 4)
        n = tensor.shape[2]  # n = side * side
        period = base[:, 2].reshape(-1, n)  # each sample's period view
        return np.column_stack([base, _smooth_3x3(period, int(round(np.sqrt(n)))).ravel()])

    def fit(
        self, tensor: np.ndarray, train_days: list[int], slot: int | None = None
    ) -> "DmvstLike":
        X, y = self._samples(tensor, train_days, slot)
        self.coef_, *_ = np.linalg.lstsq(X, y, rcond=None)
        # per-grid residual bias on the same training rows, shrunk toward 0
        resid = (y - X @ self.coef_).reshape(-1, tensor.shape[2])
        cnt = len(resid)
        shrink = cnt / (cnt + self.shrink_tau)
        self.bias_ = shrink * resid.sum(0) / cnt
        return self

    def predict(self, tensor: np.ndarray, day, slot) -> np.ndarray:
        if self.coef_ is None or self.bias_ is None:
            raise RuntimeError("fit() first")
        day, slot, shape = forecast_samples(day, slot)
        return np.maximum(self._blend(tensor, day, slot) + self.bias_, 0.0).reshape(shape)
