"""MLP substitute: a real two-layer numpy MLP on closeness lags only.

Mirrors the paper's MLP baseline (§V-B), whose input is the counts of the
nearest eight time slots. Weights are shared across MGrids (the offline
container has no GPU stack for a 6-layer per-city net — DESIGN.md §4); the
behavioural role is preserved: it is the *weakest* of the three models
because it never sees period/trend information, so it lags demand ramps.
Training is deterministic full-batch gradient descent with momentum from a
seeded initialisation.
"""
import numpy as np

from repro.models.base import closeness_window, flat_index, forecast_samples


class FlatMLP:
    """Two-layer MLP (lags -> hidden ReLU -> scalar), shared across grids."""

    name = "mlp"
    lags = 8
    hidden = 32
    epochs = 120
    lr = 0.03
    seed = 0  # weight initialisation

    def __init__(self):
        self._params = None
        self._x_mu = self._x_sd = self._y_mu = self._y_sd = None

    # -- training ----------------------------------------------------------
    def _training_set(
        self, tensor: np.ndarray, train_days: list[int], slot: int | None
    ):
        days, slots, n = tensor.shape
        flat = tensor.reshape(days * slots, n)
        xs, ys = [], []
        for d in train_days:
            for t in range(slots) if slot is None else (slot,):
                g = flat_index(d, t, slots)
                if g < self.lags:
                    continue
                xs.append(flat[g - self.lags : g].T)  # (n, lags)
                ys.append(flat[g])
        return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)

    def fit(
        self, tensor: np.ndarray, train_days: list[int], slot: int | None = None
    ) -> "FlatMLP":
        X, y = self._training_set(tensor, train_days, slot)
        self._x_mu, self._x_sd = X.mean(0), X.std(0) + 1e-9
        self._y_mu, self._y_sd = y.mean(), y.std() + 1e-9
        Xn = (X - self._x_mu) / self._x_sd
        yn = (y - self._y_mu) / self._y_sd
        g = np.random.default_rng(self.seed)
        W1 = g.normal(0, 1.0 / np.sqrt(self.lags), (self.lags, self.hidden))
        b1 = np.zeros(self.hidden)
        W2 = g.normal(0, 1.0 / np.sqrt(self.hidden), (self.hidden, 1))
        b2 = np.zeros(1)
        vel = [np.zeros_like(p) for p in (W1, b1, W2, b2)]
        mom, n_s = 0.9, Xn.shape[0]
        for _ in range(self.epochs):
            H = np.maximum(Xn @ W1 + b1, 0.0)
            pred = (H @ W2 + b2).ravel()
            err = pred - yn  # d(MSE/2)/dpred
            gW2 = H.T @ err[:, None] / n_s
            gb2 = np.array([err.mean()])
            dH = err[:, None] @ W2.T
            dH[H <= 0] = 0.0
            gW1 = Xn.T @ dH / n_s
            gb1 = dH.mean(0)
            for p, v, grad in zip((W1, b1, W2, b2), vel, (gW1, gb1, gW2, gb2)):
                v *= mom
                v -= self.lr * grad
                p += v
        self._params = (W1, b1, W2, b2)
        return self

    # -- inference ----------------------------------------------------------
    def predict(self, tensor: np.ndarray, day, slot) -> np.ndarray:
        if self._params is None:
            raise RuntimeError("fit() first")
        W1, b1, W2, b2 = self._params
        day, slot, shape = forecast_samples(day, slot)
        # (samples, n, lags): each sample's (n, lags) block is the transposed
        # window one forecast alone would multiply
        X = closeness_window(tensor, day, slot, self.lags).transpose(0, 2, 1)
        Xn = (X - self._x_mu) / self._x_sd
        H = np.maximum(Xn @ W1 + b1, 0.0)
        yn = (H @ W2 + b2)[..., 0]
        return np.maximum(yn * self._y_sd + self._y_mu, 0.0).reshape(shape)
