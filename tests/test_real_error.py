"""Tests for measured real error (Def. 3) and Theorem II.1."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.grids import grid_spec, with_grid_ids
from repro.core.model_error import demand_tensor, total_model_error
from repro.core.real_error import measured_expression_error, measured_real_error
from repro.core.alpha import alpha_by_hgrid
from repro.core.expression_error import total_expression_error_local
from repro.experiments.config import TESTS
from repro.models import DeepSTLike


@pytest.fixture(scope="module")
def setup(nyc):
    spec = grid_spec(nyc.cfg, 4, 16)
    tensor = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
    model = DeepSTLike().fit(tensor, TESTS.train_days, TESTS.default_slot)
    return spec, tensor, model


def _brute_real_error(nyc, spec, tensor, model, slot, days):
    """Reference: materialise the full HGrid lattice per day in pandas, from
    per-HGrid counts aggregated in Spark."""
    preds = model.predict(tensor, np.asarray(days), slot)
    counts = (
        with_grid_ids(nyc.events, spec)
        .where((F.col("slot") == slot) & F.col("day").isin(days))
        .groupBy("day", "hgrid")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .toPandas()
    )
    # hgrid -> mgrid mapping over the whole lattice
    fs, ms, ns = spec.fine_side, spec.m_side, spec.n_side
    h = np.arange(fs * fs)
    mg = (h // fs // ms) * ns + (h % fs) // ms
    total = 0.0
    for k, d in enumerate(days):
        lam = np.zeros(fs * fs)
        sel = counts[counts["day"] == d]
        lam[sel["hgrid"].to_numpy(int)] = sel["cnt"].to_numpy(float)
        lam_hat = preds[k][mg] / spec.m
        total += np.abs(lam_hat - lam).sum()
    return total / len(days)


def test_measured_real_error_matches_bruteforce(nyc, setup):
    spec, tensor, model = setup
    fast = measured_real_error(
        nyc.counts.table, spec, tensor, model,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    ref = _brute_real_error(nyc, spec, tensor, model, TESTS.default_slot, TESTS.val_days)
    assert fast == pytest.approx(ref, rel=1e-9)


def test_real_error_nonnegative(nyc, setup):
    spec, tensor, model = setup
    assert (
        measured_real_error(
            nyc.counts.table, spec, tensor, model,
            slot=TESTS.default_slot, eval_days=TESTS.val_days,
        )
        >= 0
    )


@pytest.mark.parametrize("n_side", [2, 4, 8])
def test_theorem_II_1_bound_dominates(nyc, n_side):
    """E_r <= E_m + E_e in total, measured on held-out days.

    The bound uses the analytic expression error (Algorithm 2 over
    estimated alphas) and the measured model error; a modest slack covers
    sampling noise of the 4 validation days.
    """
    spec = grid_spec(nyc.cfg, n_side, 16)
    tensor = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
    model = DeepSTLike().fit(tensor, TESTS.train_days, TESTS.default_slot)
    me = total_model_error(tensor, model, eval_days=TESTS.val_days, slot=TESTS.default_slot)
    alphas, mg = alpha_by_hgrid(
        nyc.counts.table, spec, train_days=TESTS.train_days, slots=TESTS.slots
    )
    ee = total_expression_error_local(alphas[TESTS.default_slot], mg, spec.m)
    re = measured_real_error(
        nyc.counts.table, spec, tensor, model,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    assert re <= (me + ee) * 1.10


def test_measured_expression_error_close_to_analytic(nyc):
    """Def. 5 measured on held-out weekdays ~ Algorithm 2's expectation."""
    spec = grid_spec(nyc.cfg, 4, 16)
    alphas, mg = alpha_by_hgrid(
        nyc.counts.table, spec, train_days=TESTS.train_days, slots=TESTS.slots
    )
    analytic = total_expression_error_local(alphas[TESTS.default_slot], mg, spec.m)
    empirical = measured_expression_error(
        nyc.counts.table, spec,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    assert empirical == pytest.approx(analytic, rel=0.25)


def test_perfect_model_real_error_equals_empirical_expression_error(nyc):
    """With lambda_hat_i = lambda_i (oracle forecasts), Def. 3 real error
    *is* Def. 5 expression error — the paper's 'real order data' identity."""
    spec = grid_spec(nyc.cfg, 4, 16)
    tensor = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)

    class Oracle:
        name = "oracle"

        def fit(self, t, days, slot=None):
            return self

        def predict(self, t, d, s):
            return t[d, s]

    re = measured_real_error(
        nyc.counts.table, spec, tensor, Oracle(),
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    ee = measured_expression_error(
        nyc.counts.table, spec,
        slot=TESTS.default_slot, eval_days=TESTS.val_days,
    )
    assert re == pytest.approx(ee, rel=1e-9)
