"""Tests for the prediction-model substrate (paper §V-B substitutes)."""
import numpy as np
import pytest

from repro.core.grids import grid_spec
from repro.core.model_error import demand_tensor, mae
from repro.experiments.config import TESTS
from repro.models import MODELS, DeepSTLike, DmvstLike, FlatMLP
from repro.models.base import closeness_window, period_days, trend_days


def _toy_tensor(days=20, slots=12, n=9, seed=0):
    """Poisson demand around a slot-dependent mean, deterministic."""
    rng = np.random.default_rng(seed)
    base = rng.random(n) * 6 + 1
    prof = 1.0 + np.sin(np.linspace(0, 2 * np.pi, slots))
    lam = base[None, None, :] * prof[None, :, None]
    return rng.poisson(np.broadcast_to(lam, (days, slots, n))).astype(float)


class TestFeatureViews:
    def test_closeness_window_shape(self):
        t = _toy_tensor()
        w = closeness_window(t, 3, 5, 8)
        assert w.shape == (8, 9)

    def test_closeness_wraps_midnight(self):
        t = _toy_tensor()
        w = closeness_window(t, 3, 2, 8)  # needs 6 slots of day 2
        np.testing.assert_array_equal(w[-2:], t[3, 0:2])
        np.testing.assert_array_equal(w[:6], t[2, 6:12])

    def test_closeness_raises_without_history(self):
        t = _toy_tensor()
        with pytest.raises(ValueError):
            closeness_window(t, 0, 3, 8)

    def test_period_values(self):
        t = _toy_tensor()
        p = t[period_days(5, 4), 3]
        assert p.shape == (4, 9)
        np.testing.assert_array_equal(p[-1], t[4, 3])
        assert period_days(2, 8) == [0, 1]
        with pytest.raises(ValueError):
            period_days(0, 8)

    def test_trend_values_weekly(self):
        t = _toy_tensor()
        tr = t[trend_days(15, 2), 3]
        assert tr.shape == (2, 9)
        np.testing.assert_array_equal(tr[0], t[8, 3])

    def test_trend_falls_back_when_short(self):
        assert trend_days(3, 2) == [0, 1, 2]  # no full week of history
        assert trend_days(1, 2) == [0]
        assert trend_days(9, 2) == [2]


@pytest.mark.parametrize("name", ["mlp", "deepst", "dmvst"])
class TestModelContracts:
    def test_fit_predict_shapes(self, name):
        t = _toy_tensor()
        model = MODELS[name]().fit(t, list(range(14)))
        pred = model.predict(t, 16, 6)
        assert pred.shape == (9,)
        assert (pred >= 0).all()

    def test_deterministic(self, name):
        t = _toy_tensor()
        p1 = MODELS[name]().fit(t, list(range(14))).predict(t, 16, 6)
        p2 = MODELS[name]().fit(t, list(range(14))).predict(t, 16, 6)
        np.testing.assert_array_equal(p1, p2)

    def test_predict_before_fit_raises(self, name):
        with pytest.raises(RuntimeError):
            MODELS[name]().predict(_toy_tensor(), 16, 6)

    def test_no_future_leakage(self, name):
        """Corrupting entries at/after the target leaves the forecast
        unchanged — predictors may only read strictly-past data."""
        t = _toy_tensor()
        model = MODELS[name]().fit(t, list(range(14)))
        base = model.predict(t, 16, 6)
        t2 = t.copy()
        t2[16, 6:, :] = 1e6
        t2[17:, :, :] = 1e6
        np.testing.assert_array_equal(base, model.predict(t2, 16, 6))

    def test_per_slot_fit(self, name):
        t = _toy_tensor()
        model = MODELS[name]().fit(t, list(range(14)), slot=6)
        assert model.predict(t, 16, 6).shape == (9,)

    def test_better_than_trivial_zero(self, name):
        """Any model must beat predicting all-zeros on Poisson demand."""
        t = _toy_tensor(days=24)
        model = MODELS[name]().fit(t, list(range(18)))
        errs, zeros = [], []
        for d in (20, 21, 22):
            for s in (4, 6, 8):
                p = model.predict(t, d, s)
                errs.append(np.abs(p - t[d, s]).mean())
                zeros.append(np.abs(t[d, s]).mean())
        assert np.mean(errs) < np.mean(zeros)


def _float_tensor(days=20, slots=12, n=9, seed=1):
    """Non-integer demand: sums of its rows round, so their order shows."""
    rng = np.random.default_rng(seed)
    return rng.random((days, slots, n)) * 10.0 ** rng.integers(-3, 4, (1, 1, n)) + 1e-9


def _oracle_features(model, tensor, day, slot):
    """The per-sample features the batched ``_features`` replaced, kept as
    its oracle: each view sliced for one (day, slot), then ``.mean(0)``."""
    days, slots, n = tensor.shape
    g = day * slots + slot
    close = tensor.reshape(days * slots, n)[g - model.lags : g].mean(0)
    period = tensor[max(0, day - model.period_days) : day, slot, :].mean(0)
    ds = [day - 7 * w for w in range(1, model.trend_weeks + 1) if day - 7 * w >= 0]
    trend = (tensor[ds, slot, :] if ds else tensor[day - min(day, 3) : day, slot, :]).mean(0)
    X = np.column_stack([np.ones_like(close), close, period, trend])
    if isinstance(model, DmvstLike):
        from repro.models.dmvst_like import _smooth_3x3

        X = np.column_stack([X, _smooth_3x3(period, int(round(np.sqrt(n))))])
    return X


def _oracle_samples(model, tensor, train_days, slot):
    """The per-sample ``_samples`` loop, kept as the oracle."""
    days, slots, _ = tensor.shape
    Xs, ys = [], []
    for d in train_days:
        if d < 1:
            continue
        for t in range(slots) if slot is None else (slot,):
            if d * slots + t < model.lags:
                continue
            Xs.append(_oracle_features(model, tensor, d, t))
            ys.append(tensor[d, t, :])
    return np.concatenate(Xs), np.concatenate(ys)


TENSORS = {
    "counts": _toy_tensor,
    "floats": _float_tensor,
    # one MGrid: numpy sums a lone column pairwise, not row by row
    "floats-n1": lambda: _float_tensor(n=1),
    # fewer slots than lags: day 1's first slots lack closeness history
    "counts-4-slots": lambda: _toy_tensor(slots=4, n=4),
}
TRAIN_DAYS = {
    "0-13": list(range(14)),  # days 1-6 fall back for trend, 1-7 short period
    "1-7": list(range(1, 8)),
    "shuffled": [9, 3, 1, 12, 5, 5, 17, 0, 2],
}


@pytest.mark.parametrize("model_cls", [DeepSTLike, DmvstLike])
@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
class TestBatchedFeaturesEqualPerSample:
    """The batched features, fit and forecasts equal the per-sample loop's
    bit for bit, on counts and on non-integer tensors."""

    @pytest.mark.parametrize("days_name", sorted(TRAIN_DAYS))
    @pytest.mark.parametrize("slot", [None, 0, 3])
    def test_fit(self, model_cls, tensor_name, days_name, slot):
        t, train = TENSORS[tensor_name](), TRAIN_DAYS[days_name]
        model = model_cls()
        X, y = model._samples(t, train, slot)
        want_X, want_y = _oracle_samples(model, t, train, slot)
        np.testing.assert_array_equal(X, want_X)
        np.testing.assert_array_equal(y, want_y)
        model.fit(t, train, slot)
        coef, *_ = np.linalg.lstsq(want_X, want_y, rcond=None)
        np.testing.assert_array_equal(model.coef_, coef)
        bias = 0.0
        if model_cls is DmvstLike:
            resid = (want_y - want_X @ coef).reshape(-1, t.shape[2])
            bias = len(resid) / (len(resid) + model.shrink_tau) * resid.sum(0) / len(resid)
            np.testing.assert_array_equal(model.bias_, bias)
        for d in range(1, 9):
            for s in {slot or 0, t.shape[1] - 1}:
                if d * t.shape[1] + s < model.lags:
                    continue
                want = np.maximum(_oracle_features(model, t, d, s) @ coef + bias, 0.0)
                np.testing.assert_array_equal(model.predict(t, d, s), want)

    def test_features_of_unsorted_samples(self, model_cls, tensor_name):
        t = TENSORS[tensor_name]()
        days, slots, _ = t.shape
        rng = np.random.default_rng(3)
        d = rng.integers(1, days, 60)
        s = rng.integers(0, slots, 60)
        ok = d * slots + s >= model_cls.lags
        d, s = d[ok], s[ok]
        model = model_cls()
        want = np.concatenate([_oracle_features(model, t, a, b) for a, b in zip(d, s)])
        np.testing.assert_array_equal(model._features(t, d, s), want)

    def test_predict_without_history_raises(self, model_cls, tensor_name):
        t = TENSORS[tensor_name]()
        model = model_cls().fit(t, list(range(14)))
        with pytest.raises(ValueError):
            model.predict(t, 0, t.shape[1] - 1)  # no previous day: no period view
        with pytest.raises(ValueError):
            model.predict(t, 0, 0)  # no closeness history either


def _per_sample_forecasts(model, tensor, days, slots):
    """The one-forecast-per-sample loop the batched calls replaced, kept as
    their oracle."""
    return np.stack([model.predict(tensor, d, s) for d, s in zip(days, slots)])


def _oracle_mlp_forecast(model, tensor, day, slot):
    """One FlatMLP forecast as the per-sample ``predict`` computed it: the
    transposed (n, lags) window through the two layers."""
    W1, b1, W2, b2 = model._params
    X = closeness_window(tensor, day, slot, model.lags).T
    Xn = (X - model._x_mu) / model._x_sd
    yn = (np.maximum(Xn @ W1 + b1, 0.0) @ W2 + b2).ravel()
    return np.maximum(yn * model._y_sd + model._y_mu, 0.0)


@pytest.mark.parametrize("name", ["mlp", "deepst", "dmvst"])
@pytest.mark.parametrize("slot", [None, 1])
@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
class TestBatchedForecastsEqualPerSample:
    """One forecast call over many (day, slot) samples equals the loop of
    one call per sample bit for bit, for all-slot and per-slot fits."""

    def test_eval_days_of_one_slot(self, name, slot, tensor_name):
        t = TENSORS[tensor_name]()
        model = MODELS[name]().fit(t, list(range(14)), slot)
        days = [14, 15, 16, 18]
        want = _per_sample_forecasts(model, t, days, [slot or 0] * len(days))
        got = model.predict(t, np.array(days), slot or 0)
        assert got.shape == want.shape == (len(days), t.shape[2])
        np.testing.assert_array_equal(got, want)

    def test_all_slots_of_one_day(self, name, slot, tensor_name):
        t = TENSORS[tensor_name]()
        model = MODELS[name]().fit(t, list(range(14)), slot)
        slots = np.arange(t.shape[1])
        want = _per_sample_forecasts(model, t, [16] * slots.size, slots)
        np.testing.assert_array_equal(model.predict(t, 16, slots), want)

    def test_unsorted_samples(self, name, slot, tensor_name):
        t = TENSORS[tensor_name]()
        model = MODELS[name]().fit(t, list(range(14)), slot)
        rng = np.random.default_rng(5)
        d = rng.integers(1, t.shape[0], 40)
        s = rng.integers(0, t.shape[1], 40)
        ok = d * t.shape[1] + s >= model.lags
        d, s = d[ok], s[ok]
        want = _per_sample_forecasts(model, t, d, s)
        np.testing.assert_array_equal(model.predict(t, d, s), want)

    def test_scalar_sample(self, name, slot, tensor_name):
        t = TENSORS[tensor_name]()
        model = MODELS[name]().fit(t, list(range(14)), slot)
        got = model.predict(t, 16, slot or 0)
        assert got.shape == (t.shape[2],)
        if name == "mlp":
            np.testing.assert_array_equal(got, _oracle_mlp_forecast(model, t, 16, slot or 0))


class TestAccuracyOrdering:
    """Paper §V-C: MAE(MLP) > MAE(DeepST) > MAE(Dmvst-Net)."""

    @pytest.fixture(scope="class")
    def maes(self, nyc):
        spec = grid_spec(nyc.cfg, 4, 16)
        tensor = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
        out = {}
        for name in ("mlp", "deepst", "dmvst"):
            model = MODELS[name]().fit(tensor, TESTS.train_days)
            vals = [
                mae(tensor, model, eval_days=TESTS.val_days, slot=s)
                for s in (10, 17, 24, 37)
            ]
            out[name] = float(np.mean(vals))
        return out

    def test_mlp_is_weakest(self, maes):
        assert maes["mlp"] > maes["deepst"]
        assert maes["mlp"] > maes["dmvst"]

    def test_dmvst_is_strongest(self, maes):
        assert maes["dmvst"] <= maes["deepst"]


class TestDmvstSpatialSmoothing:
    def test_smooth_3x3_constant_field(self):
        from repro.models.dmvst_like import _smooth_3x3

        v = np.full(16, 3.0)
        np.testing.assert_allclose(_smooth_3x3(v, 4), v)

    def test_smooth_3x3_averages_neighbours(self):
        from repro.models.dmvst_like import _smooth_3x3

        v = np.zeros(16)
        v[5] = 9.0  # centre cell of a 4x4 grid
        out = _smooth_3x3(v, 4)
        assert out[5] == pytest.approx(1.0)
        assert out[0] == pytest.approx(1.0)  # corner adjacent via padding


def test_flat_mlp_initialisation_is_seeded():
    """Fits on the full training sample start from weights drawn with
    ``FlatMLP.seed``: the same seed gives the same forecast, another seed
    another one."""
    t = _toy_tensor(days=20, slots=12, n=9)
    m1 = FlatMLP().fit(t, list(range(14)))
    m2 = FlatMLP().fit(t, list(range(14)))
    np.testing.assert_array_equal(m1.predict(t, 16, 6), m2.predict(t, 16, 6))
    other = type("OtherSeed", (FlatMLP,), {"seed": 1})().fit(t, list(range(14)))
    assert not np.array_equal(other.predict(t, 16, 6), m1.predict(t, 16, 6))
