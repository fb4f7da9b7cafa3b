"""Tests for the demand tensor and Eq. 20 model-error estimation."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.grids import grid_spec, with_grid_ids
from repro.core.model_error import demand_counts, demand_tensor, mae, total_model_error
from repro.core.real_error import hgrid_counts
from repro.experiments.config import TESTS
from repro.models import DeepSTLike
from repro.oracle import assert_equivalent


class TestDemandCounts:
    def test_matches_duckdb(self, nyc, nyc_pdf):
        spec = grid_spec(nyc.cfg, 4, 16)
        got = demand_counts(nyc.events, spec)
        w, h = nyc.cfg.width_km, nyc.cfg.height_km
        fs, ms, ns = spec.fine_side, spec.m_side, spec.n_side
        assert_equivalent(
            got,
            f"""
            WITH cells AS (
              SELECT day, slot,
                     least(CAST(floor(x / {w / fs}) AS INT), {fs - 1}) AS fx,
                     least(CAST(floor(y / {h / fs}) AS INT), {fs - 1}) AS fy
              FROM events
            )
            SELECT day, slot,
                   CAST(floor(fy / {ms}) AS INT) * {ns}
                   + CAST(floor(fx / {ms}) AS INT) AS mgrid,
                   count(*) AS cnt
            FROM cells GROUP BY day, slot, 3
            """,
            events=nyc_pdf,
        )

    def test_total_preserved(self, nyc):
        spec = grid_spec(nyc.cfg, 3, 16)
        total = demand_counts(nyc.events, spec).agg(F.sum("cnt")).first()[0]
        assert total == nyc.events.count()


class TestDemandTensor:
    def test_shape_and_mass(self, nyc):
        spec = grid_spec(nyc.cfg, 4, 16)
        t = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
        assert t.shape == (TESTS.days, TESTS.slots, spec.n)
        assert t.sum() == nyc.events.count()

    def test_zero_fill(self, nyc):
        spec = grid_spec(nyc.cfg, 8, 16)
        t = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
        assert (t >= 0).all()
        assert (t[:, 0:4, :] == 0).any()  # quiet night slots have empty grids

    def test_matches_direct_count(self, nyc):
        spec = grid_spec(nyc.cfg, 2, 16)
        t = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
        cnt = (
            with_grid_ids(nyc.events, spec)
            .where((F.col("day") == 5) & (F.col("slot") == 17) & (F.col("mgrid") == 1))
            .count()
        )
        assert t[5, 17, 1] == cnt


class TestEq20:
    """total_model_error is exactly sum_i mean_d |pred - actual| = n*MAE."""

    def test_identity_with_mae(self, nyc):
        spec = grid_spec(nyc.cfg, 4, 16)
        t = demand_tensor(nyc.counts.table, spec, days=TESTS.days, slots=TESTS.slots)
        model = DeepSTLike().fit(t, TESTS.train_days)
        tme = total_model_error(t, model, eval_days=TESTS.val_days, slot=17)
        m = mae(t, model, eval_days=TESTS.val_days, slot=17)
        assert tme == pytest.approx(spec.n * m, rel=1e-9)

    def test_perfect_model_zero_error(self):
        class Oracle:
            name = "oracle"

            def fit(self, t, days, slot=None):
                return self

            def predict(self, t, d, s):
                return t[d, s]

        t = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        assert total_model_error(t, Oracle(), eval_days=[1], slot=2) == 0.0

    def test_constant_offset(self):
        class OffBy:
            name = "off"

            def fit(self, t, days, slot=None):
                return self

            def predict(self, t, d, s):
                return t[d, s] + 0.5

        t = np.zeros((2, 2, 6))
        assert total_model_error(t, OffBy(), eval_days=[1], slot=0) == pytest.approx(3.0)


def test_hgrid_counts_for_days(nyc):
    """The per-HGrid validation-day counts behind the measured errors: one
    dense row per day, each row the Spark count of that day's events."""
    spec = grid_spec(nyc.cfg, 4, 16)
    counts = hgrid_counts(
        nyc.counts.table, spec, slot=TESTS.default_slot, days=TESTS.val_days
    )
    assert counts.shape == (len(TESTS.val_days), spec.fine_side**2)
    for row, d in zip(counts, TESTS.val_days):
        day = nyc.events.where((F.col("slot") == TESTS.default_slot) & (F.col("day") == d))
        assert row.sum() == day.count()
    total = nyc.events.where(
        (F.col("slot") == TESTS.default_slot) & F.col("day").isin(TESTS.val_days)
    ).count()
    assert counts.sum() == total
