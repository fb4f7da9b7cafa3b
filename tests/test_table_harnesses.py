"""Tests for the Table III / Table IV experiment harnesses."""
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.search import brute_force, iterative_method, ternary_search
from repro.core.upper_bound import UpperBoundEvaluator
from repro.dispatch.simulator import allocate, day_orders, matched, polar_weights
from repro.experiments import table4 as table4_module
from repro.experiments.config import ITERATIVE_B, SEARCHES, TESTS
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
    """No slot, a slot outside [0, slots) or a repeated slot raises before
    any count is filled: the stand-in city has no ``counts`` or ``cfg`` to
    read. (A repeated slot would count twice in probability and OR but
    once in the bound calls and cost.)"""
    with pytest.raises(ValueError, match="at least one slot"):
        run_table4(SimpleNamespace(settings=TESTS), slots=[])
    for slots in ([TESTS.slots], [17, -1], [17, 17]):
        with pytest.raises(ValueError, match=rf"distinct slots in \[0, {TESTS.slots}\), got"):
            run_table4(SimpleNamespace(settings=TESTS), slots=slots)


# two slots keep the unit-test runtime modest; jobs sweep 12 or all 48
TABLE4_SLOTS = [17, 37]


def _fresh_evaluator_table4(data, slots):
    """Table IV with a fresh bound evaluator per algorithm (the loop
    ``run_table4`` ran before its searches shared one): each algorithm's
    found side per slot, and its bound calls, probability and OR."""
    st = data.settings
    algos = {
        "Ternary Search": lambda fn: ternary_search(fn, st.s_min, st.s_max),
        "Iterative Method": lambda fn: iterative_method(
            fn, st.s_min, st.s_max, p=st.s_default, b=ITERATIVE_B
        ),
        "Brute-force Search": lambda fn: brute_force(fn, st.s_min, st.s_max),
    }
    found, calls, evaluators = {}, {}, {}
    for name, algo in algos.items():
        evaluator = evaluators[name] = UpperBoundEvaluator.for_city(data, DeepSTLike)
        found[name] = [algo(evaluator.bound_fn(t)).s_opt for t in slots]
        calls[name] = evaluator.calls

    P = st.N_side
    n_drivers = max(20, int(0.7 * int(data.cfg.daily_orders * st.sf) / st.slots))
    orders = day_orders(data.counts.table, data.cfg, day=st.test_day, P=P)
    cells_by_slot = {int(t): g["cell"].to_numpy(int) for t, g in orders.groupby("slot")}

    def served(s, slot):
        model = evaluators["Brute-force Search"].evaluate(s, slot).model
        pred = model.predict(data.counts.tensor(s), st.test_day, slot)
        alloc = allocate(polar_weights(pred, data.counts.spec(s), P), n_drivers)
        return int(matched(alloc, cells_by_slot.get(slot, np.empty(0, dtype=int))).sum())

    optimal = found["Brute-force Search"]
    rows = {}
    for name in algos:
        o_a = sum(served(s, t) for s, t in zip(found[name], slots))
        o_r = sum(served(s, t) for s, t in zip(optimal, slots))
        rows[name] = {
            "bound_calls": calls[name],
            "probability": sum(a == b for a, b in zip(found[name], optimal)) / len(slots),
            "OR": (o_a / o_r) if o_r else 1.0,
        }
    return found, rows


class TestTable4:
    @pytest.fixture(scope="class")
    def run(self, xian):
        """The table, each search's found side per slot, and the number of
        DeepST fits made while building the table."""
        fits, found = [], {}
        fit = DeepSTLike.fit

        def counted(self, *args, **kwargs):
            fits.append(self)
            return fit(self, *args, **kwargs)

        def recording(name, search):
            def run(fn, st):
                res = search(fn, st)
                found.setdefault(name, []).append(res.s_opt)
                return res

            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DeepSTLike, "fit", counted)
            mp.setattr(
                table4_module, "SEARCHES", {n: recording(n, f) for n, f in SEARCHES.items()}
            )
            table = run_table4(xian, slots=TABLE4_SLOTS)
        return table, found, len(fits)

    @pytest.fixture(scope="class")
    def table(self, run):
        return run[0]

    def test_optimal_ratio_trains_no_model(self, run):
        """Every fit is one of brute force's bound evaluations: the searches
        share one evaluator, and the OR phase forecasts with its memoised
        models."""
        table, _, fits = run
        brute = table.set_index("algorithm").loc["Brute-force Search", "bound_calls"]
        sides = TESTS.s_max - TESTS.s_min + 1
        assert fits == brute == sides * len(TABLE4_SLOTS) == 20

    def test_equals_fresh_evaluator_oracle(self, xian, run):
        """Sharing the evaluator changes no found side, bound call count,
        probability or OR."""
        table, found, _ = run
        want_found, want_rows = _fresh_evaluator_table4(xian, TABLE4_SLOTS)
        assert found == want_found
        got = table.set_index("algorithm")[["bound_calls", "probability", "OR"]]
        assert got.to_dict("index") == want_rows

    def test_search_costs_at_most_bruteforce(self, table):
        """A search's cost sums the evaluation times of a subset of brute
        force's points, so it can never exceed brute force's."""
        by = table.set_index("algorithm")["cost_s"]
        assert by["Ternary Search"] <= by["Brute-force Search"]
        assert by["Iterative Method"] <= by["Brute-force Search"]

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
