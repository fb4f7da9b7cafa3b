"""Tests for the prediction-model substrate (paper §V-B substitutes)."""
import numpy as np
import pytest

from repro.core.grids import grid_spec
from repro.core.model_error import demand_tensor, mae
from repro.experiments.config import TESTS
from repro.models import MODELS, DeepSTLike, DmvstLike, FlatMLP
from repro.models.base import closeness_window, period_values, trend_values


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
        p = period_values(t, 5, 3, 4)
        assert p.shape == (4, 9)
        np.testing.assert_array_equal(p[-1], t[4, 3])

    def test_trend_values_weekly(self):
        t = _toy_tensor()
        tr = trend_values(t, 15, 3, 2)
        assert tr.shape == (2, 9)
        np.testing.assert_array_equal(tr[0], t[8, 3])

    def test_trend_falls_back_when_short(self):
        t = _toy_tensor()
        tr = trend_values(t, 3, 5, 2)  # no full week of history
        assert tr.shape[1] == 9 and tr.shape[0] >= 1


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
