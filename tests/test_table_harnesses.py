"""Tests for the Table III / Table IV experiment harnesses."""
from types import SimpleNamespace

import pytest

from repro.experiments.config import TESTS
from repro.experiments.table3 import (
    TABLE3_ROWS,
    case_study_run,
    find_optimal_s,
    run_table3,
)
from repro.experiments.table4 import run_table4
from repro.models import DeepSTLike


class TestCaseStudyRun:
    @pytest.fixture(scope="class")
    def run(self, spark, nyc):
        return case_study_run(spark, nyc, 4)

    def test_metrics_sane(self, run):
        assert 0 < run.polar.served <= run.polar.arrived
        assert 0 < run.ls.served <= run.ls.arrived
        assert run.polar.revenue > 0 and run.ls.revenue > 0
        assert run.daif_served > 0 and run.daif_cost > 0

    def test_oracle_mode_beats_noisy_forecast_for_polar(self, spark, nyc, run):
        oracle = case_study_run(spark, nyc, 8, oracle=True)
        noisy = case_study_run(spark, nyc, 8)
        assert oracle.polar.served >= noisy.polar.served


class TestTable3:
    @pytest.fixture(scope="class")
    def table(self, nyc):
        return run_table3(nyc, optimal_s=8)

    def test_all_rows_present(self, table):
        assert len(table) == len(TABLE3_ROWS)
        assert set(table["algorithm"]) == {"POLAR", "LS", "DAIF"}

    def test_original_n_scaled_from_paper(self, table):
        # paper's 16 of 128 -> 2 of 16; 20 of 128 -> 2.5 -> rounds to 2
        assert (table["original_n"].isin(["2x2", "3x3"])).all()

    def test_improvement_sign_convention(self, table):
        """value_optimal better than value_original <=> positive ratio."""
        for _, row in table.iterrows():
            lower_better = row["metric"] == "Unified Cost"
            if lower_better:
                expect = (row["value_original"] - row["value_optimal"]) / row["value_original"]
            else:
                expect = (row["value_optimal"] - row["value_original"]) / row["value_original"]
            assert row["improve_ratio"] == pytest.approx(expect)

    def test_polar_gains_from_tuning(self, table):
        """The paper's headline: POLAR improves at the tuned grid size."""
        polar = table[table["algorithm"] == "POLAR"]
        assert (polar["improve_ratio"] > 0).all()


def test_find_optimal_s_in_sweep(nyc):
    s = find_optimal_s(nyc)
    assert TESTS.s_min <= s <= TESTS.s_max


def test_table4_rejects_empty_slot_list_before_counts():
    """No slot raises before any count is filled: the stand-in city has no
    ``counts`` or ``cfg`` to read."""
    with pytest.raises(ValueError, match="at least one slot"):
        run_table4(SimpleNamespace(settings=TESTS), slots=[])


class TestTable4:
    @pytest.fixture(scope="class")
    def run(self, xian):
        """The table and the number of DeepST fits made while building it."""
        fits = []
        fit = DeepSTLike.fit

        def counted(self, *args, **kwargs):
            fits.append(self)
            return fit(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DeepSTLike, "fit", counted)
            # two slots keep the unit-test runtime modest; jobs sweep all 48
            table = run_table4(xian, slots=[17, 37])
        return table, len(fits)

    @pytest.fixture(scope="class")
    def table(self, run):
        return run[0]

    def test_optimal_ratio_trains_no_model(self, run):
        """Every fit is a bound evaluation: the OR phase forecasts with the
        brute-force evaluator's memoised models."""
        table, fits = run
        assert fits == table["bound_calls"].sum()

    def test_rows_and_columns(self, table):
        assert len(table) == 3
        assert set(table["algorithm"]) == {
            "Ternary Search", "Iterative Method", "Brute-force Search",
        }
        assert {"cost_s", "bound_calls", "probability", "OR"} <= set(table.columns)

    def test_bruteforce_is_reference(self, table):
        brute = table[table["algorithm"] == "Brute-force Search"].iloc[0]
        assert brute["probability"] == 1.0
        assert brute["OR"] == pytest.approx(1.0)

    def test_probabilities_valid(self, table):
        assert table["probability"].between(0, 1).all()
        assert (table["OR"] > 0).all()

    def test_search_calls_fewer_than_bruteforce(self, table):
        by = table.set_index("algorithm")["bound_calls"]
        assert by["Ternary Search"] < by["Brute-force Search"]
        assert by["Iterative Method"] < by["Brute-force Search"]
