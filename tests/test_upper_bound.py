"""Tests for the Algorithm-3 bound evaluator."""
import pytest

from repro.core.model_error import total_model_error
from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments import error_curves as curves_module
from repro.experiments.config import TESTS
from repro.experiments.error_curves import error_curves
from repro.models import MODELS


@pytest.fixture(scope="module")
def evaluator(nyc):
    return UpperBoundEvaluator.for_city(nyc, MODELS["deepst"])


def test_bound_is_sum_of_components(evaluator):
    r = evaluator.evaluate(4, TESTS.default_slot)
    assert r.bound == pytest.approx(r.model_error + r.expr_error)
    assert r.model_error >= 0 and r.expr_error >= 0


def test_result_carries_its_model(nyc, evaluator):
    """The fitted model comes with the result and reproduces its model
    error; neither it nor the evaluation's wall time takes part in
    comparing results."""
    r = evaluator.evaluate(4, TESTS.default_slot)
    tensor = nyc.counts.tensor(4)
    assert total_model_error(
        tensor, r.model, eval_days=TESTS.val_days, slot=TESTS.default_slot
    ) == r.model_error
    assert r.eval_s > 0
    assert r == type(r)(r.n_side, r.slot, r.model_error, r.expr_error, model=None, eval_s=-1.0)


@pytest.mark.parametrize("slot", [-1, TESTS.slots])
def test_rejects_slot_out_of_range(nyc, slot):
    """A slot outside [0, slots) raises before any model is fitted (numpy
    would read slot -1 as the last slot's alphas)."""
    fits = []

    def factory():
        fits.append(slot)
        return MODELS["deepst"]()

    ev = UpperBoundEvaluator.for_city(nyc, factory)
    with pytest.raises(ValueError, match=rf"slot {slot} is outside \[0, {TESTS.slots}\)"):
        ev.evaluate(4, slot)
    assert fits == [] and ev.calls == 0


def test_memoised(evaluator):
    before = evaluator.calls
    r1 = evaluator.evaluate(5, TESTS.default_slot)
    mid = evaluator.calls
    r2 = evaluator.evaluate(5, TESTS.default_slot)
    assert mid == before + 1 and evaluator.calls == mid
    assert r1 is r2


def test_distinct_slots_are_distinct_problems(evaluator):
    r_am = evaluator.evaluate(4, 17)
    r_night = evaluator.evaluate(4, 2)
    # the 8:30 AM peak carries far more demand than 1 AM
    assert r_am.expr_error > r_night.expr_error


def test_bound_fn_matches_evaluate(evaluator):
    fn = evaluator.bound_fn(TESTS.default_slot)
    assert fn(6) == evaluator.evaluate(6, TESTS.default_slot).bound


def test_tensor_cache_shared_across_slots(evaluator):
    evaluator.evaluate(7, 10)
    n_tensors = len(evaluator._counts._tensors)
    evaluator.evaluate(7, 11)
    assert len(evaluator._counts._tensors) == n_tensors


def test_for_city_shares_city_counts(nyc, evaluator):
    assert evaluator._counts is nyc.counts
    assert evaluator._counts.tensor(4) is nyc.counts.tensor(4)


def test_counts_are_read_only(nyc):
    """One array serves every consumer of the city, so writes must fail."""
    with pytest.raises(ValueError):
        nyc.counts.tensor(4)[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        nyc.counts.alphas(4)[0][0, 0] += 1.0


def test_elapsed_accumulates(evaluator):
    before = evaluator.elapsed
    evaluator.evaluate(2, 20)
    assert evaluator.elapsed > before


def test_expr_error_matches_spark_pipeline(nyc, nyc_pdf, evaluator):
    """The evaluator's Spark alpha aggregation + local kernel reproduce
    exactly the kernel on alphas binned in numpy from the raw events."""
    import numpy as np

    from repro.core.expression_error import total_expression_error_local
    from repro.core.grids import grid_spec, mgrid_of_hgrid

    r = evaluator.evaluate(4, TESTS.default_slot)
    spec = grid_spec(nyc.cfg, 4, TESTS.N_side)
    fs = spec.fine_side
    ev = nyc_pdf[
        (nyc_pdf["slot"] == TESTS.default_slot) & nyc_pdf["day"].isin(TESTS.train_days)
    ]
    fx = np.minimum(np.floor(ev["x"].to_numpy() / (spec.width_km / fs)).astype(int), fs - 1)
    fy = np.minimum(np.floor(ev["y"].to_numpy() / (spec.height_km / fs)).astype(int), fs - 1)
    alphas = np.bincount(fy * fs + fx, minlength=fs**2) / len(TESTS.train_days)
    assert r.expr_error == total_expression_error_local(
        alphas, mgrid_of_hgrid(spec), spec.m, TESTS.K
    )


def _never(*args, **kwargs):
    raise AssertionError("error_curves computed a bound component itself")


@pytest.mark.parametrize("name", ["mlp", "deepst", "dmvst"])
def test_error_curves_read_the_evaluator(spark, nyc, monkeypatch, name):
    """A curve row's model error, expression error and bound are exactly the
    evaluator's, and the curve fits one model per side: the model that the
    real error is measured with comes from the evaluator's result."""
    sides = [4, 6]
    want = UpperBoundEvaluator.for_city(nyc, MODELS[name])
    want = [want.evaluate(s, TESTS.default_slot) for s in sides]
    fits = []
    fit = MODELS[name].fit

    def counted(self, *args, **kwargs):
        fits.append(self)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(MODELS[name], "fit", counted)
    for attr in ("demand_tensor", "alpha_by_hgrid", "total_model_error", "total_expression_error"):
        monkeypatch.setattr(curves_module, attr, _never)
    df = error_curves(spark, nyc, model_name=name, n_sides=sides)
    assert len(fits) == len(sides)
    assert df["n_side"].tolist() == sides
    for row, r in zip(df.itertuples(), want):
        assert (row.model_error, row.expr_error, row.bound) == (
            r.model_error, r.expr_error, r.bound
        )
