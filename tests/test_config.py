"""Tests for the Table-II-analogue experiment settings."""
import pytest

from repro.experiments.config import BENCH, TESTS, Settings, load_city
from repro.synth_data import CITIES


class TestScaleMapping:
    """Paper fractions of the 128-lattice are preserved at every scale."""

    @pytest.mark.parametrize("st", [TESTS, BENCH], ids=["tests", "bench"])
    def test_sweep_bounds(self, st):
        assert 1 <= st.s_min < st.s_default < st.s_max <= st.N_side
        # paper: 4..76 of 128 -> fractions ~0.031 and ~0.594
        assert st.s_min == pytest.approx(4 / 128 * st.N_side, abs=1)
        assert st.s_max == pytest.approx(76 / 128 * st.N_side, abs=1)

    @pytest.mark.parametrize("st", [TESTS, BENCH], ids=["tests", "bench"])
    def test_default_is_2km_prior(self, st):
        assert st.s_default == st.N_side // 8  # 16 of 128

    def test_constraint_preserved(self):
        """nm >= N along the whole sweep with m >= 4 (s_max < N_side) —
        equality only when s divides N_side exactly, matching the paper's
        own m = ceil(sqrt(N/n))^2 formula (Algorithm 3 line 1)."""
        from repro.core.grids import grid_spec
        from repro.synth_data import NYC

        for st in (TESTS, BENCH):
            for s in range(st.s_min, st.s_max + 1):
                spec = grid_spec(NYC, s, st.N_side)
                assert spec.n * spec.m >= spec.N
                assert spec.m >= 4


class TestSplits:
    @pytest.mark.parametrize("st", [TESTS, BENCH], ids=["tests", "bench"])
    def test_days_are_weekdays(self, st):
        assert all(d % 7 < 5 for d in st.train_days)
        assert all(d % 7 < 5 for d in st.val_days)
        assert st.test_day % 7 < 5

    @pytest.mark.parametrize("st", [TESTS, BENCH], ids=["tests", "bench"])
    def test_splits_disjoint(self, st):
        assert not set(st.train_days) & set(st.val_days)
        assert st.test_day not in st.train_days + st.val_days
        assert st.test_day < st.days

    def test_tests_scale_values(self):
        assert TESTS.sf == 0.01 and TESTS.N_side == 16
        assert BENCH.sf == 0.1 and BENCH.N_side == 32

    def test_default_slot_is_morning_peak(self):
        # 8:00-8:30 AM window of the paper -> slot 17 under 30-min slots
        assert TESTS.default_slot == 17


def test_load_city_caches_and_counts(spark):
    """The city's count cache holds every row of its Spark view."""
    st = Settings(sf=0.002, N_side=16)
    data = load_city(spark, "xian", st)
    assert data.cfg is CITIES["xian"]
    n = data.events.count()
    assert n == data.counts.table.day.size > 0
    weekdays = sum(1 for d in range(st.days) if d % 7 < 5)
    approx = CITIES["xian"].daily_orders * 0.002
    assert n == pytest.approx(
        approx * (weekdays + (st.days - weekdays) * CITIES["xian"].weekend_factor),
        rel=0.15,
    )
