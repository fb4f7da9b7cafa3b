"""Tests for the task-assignment substrate (POLAR / LS, §V-D)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.grids import grid_spec, with_grid_ids
from repro.dispatch.simulator import (
    KM_PER_SLOT,
    DispatchMetrics,
    allocate,
    day_orders,
    ls_weights,
    matched,
    mean_fare_by_cell,
    polar_weights,
    simulate_day,
    spread_to_cells,
)
from repro.experiments.config import TESTS
from repro.models import DeepSTLike
from repro.oracle import assert_equivalent


class TestAllocate:
    def test_sums_to_total(self):
        w = np.array([0.5, 0.3, 0.2, 0.0])
        for total in (0, 1, 7, 100):
            assert allocate(w, total).sum() == total

    def test_proportional(self):
        out = allocate(np.array([3.0, 1.0]), 100)
        assert out[0] == 75 and out[1] == 25

    def test_largest_remainder(self):
        out = allocate(np.array([1.0, 1.0, 1.0]), 4)
        assert sorted(out.tolist()) == [1, 1, 2]

    def test_negative_weights_clipped(self):
        out = allocate(np.array([-5.0, 1.0]), 10)
        assert out[0] == 0 and out[1] == 10

    def test_all_zero_weights(self):
        for total in (3, 4, 10):
            out = allocate(np.zeros(4), total)
            assert out.sum() == total and (out >= 0).all()
            assert out.max() - out.min() <= 1  # spread evenly


class TestSpreadToCells:
    def test_mass_conserved(self):
        spec = grid_spec(__import__("repro.synth_data", fromlist=["NYC"]).NYC, 4, 16)
        pred = np.arange(spec.n, dtype=float)
        cells = spread_to_cells(pred, spec, 16)
        assert cells.sum() == pytest.approx(pred.sum())

    def test_uniform_within_mgrid(self):
        from repro.synth_data import NYC

        spec = grid_spec(NYC, 2, 16)
        pred = np.array([4.0, 8.0, 12.0, 16.0])
        cells = spread_to_cells(pred, spec, 8).reshape(8, 8)
        # one MGrid covers a 4x4 block of the 8-lattice
        assert np.unique(cells[:4, :4]).size == 1
        assert cells[:4, :4].sum() == pytest.approx(4.0)
        assert cells[4:, 4:].sum() == pytest.approx(16.0)

    def test_rejects_wrong_length(self):
        from repro.synth_data import NYC

        with pytest.raises(ValueError):
            spread_to_cells(np.ones(5), grid_spec(NYC, 2, 16), 8)
        # the n = 4 MGrid values must be the last axis of a 2-D array too
        with pytest.raises(ValueError):
            spread_to_cells(np.ones((4, 3)), grid_spec(NYC, 2, 16), 8)

    @pytest.mark.parametrize("side, P", [(4, 16), (3, 7), (5, 16)])
    def test_rows_equal_per_row_calls(self, side, P):
        from repro.synth_data import NYC

        spec = grid_spec(NYC, side, 16)
        pred = np.random.default_rng(side).gamma(2.0, 3.0, size=(6, spec.n))
        want = np.stack([spread_to_cells(p, spec, P) for p in pred])
        assert np.array_equal(spread_to_cells(pred, spec, P), want)


def _spark_day_orders(events, cfg, *, day, P):
    """The Spark query ``day_orders`` replaced, kept as its oracle."""
    spec = grid_spec(cfg, P, P)
    df = (
        with_grid_ids(events.where(F.col("day") == day), spec)
        .withColumnRenamed("hgrid", "cell")
        .withColumn(
            "trip_km",
            F.sqrt(
                F.pow(F.col("dest_x") - F.col("x"), F.lit(2.0))
                + F.pow(F.col("dest_y") - F.col("y"), F.lit(2.0))
            ),
        )
    )
    return df.select(
        "slot", "cell", "trip_km", "revenue", "x", "y", "dest_x", "dest_y"
    ).toPandas()


class TestDayOrders:
    @pytest.fixture(scope="class")
    def orders(self, nyc):
        return day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)

    @pytest.mark.parametrize("P", [16, 7])
    def test_equals_spark_row_for_row(self, nyc, P):
        """Same rows in the same order, every column exact: simulate_day's
        revenue sort is not stable, so the row order decides Table III."""
        got = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=P)
        want = _spark_day_orders(nyc.events, nyc.cfg, day=TESTS.test_day, P=P)
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_row_count(self, nyc, orders):
        assert len(orders) == nyc.events.where(F.col("day") == TESTS.test_day).count()

    def test_cells_in_range(self, orders):
        assert orders["cell"].between(0, 255).all()

    def test_trip_km_consistent(self, orders):
        d = np.hypot(
            orders["dest_x"] - orders["x"], orders["dest_y"] - orders["y"]
        )
        np.testing.assert_allclose(orders["trip_km"], d, rtol=1e-9)

    def test_cell_counts_match_duckdb(self, nyc, nyc_pdf, spark, orders):
        got = spark.createDataFrame(
            orders.groupby(["slot", "cell"]).size().reset_index(name="cnt")
        )
        w, h = nyc.cfg.width_km, nyc.cfg.height_km
        assert_equivalent(
            got,
            f"""
            SELECT slot,
                   least(CAST(floor(y / {h / 16}) AS INT), 15) * 16
                   + least(CAST(floor(x / {w / 16}) AS INT), 15) AS cell,
                   count(*) AS cnt
            FROM events WHERE day = {TESTS.test_day} GROUP BY slot, 2
            """,
            events=nyc_pdf,
        )


def _capacity_loop(alloc, cells):
    """The per-order loop ``matched`` replaced, kept as its oracle: walk the
    orders in turn, each taking one of its cell's remaining drivers."""
    cap = alloc.copy()
    take = np.zeros(len(cells), dtype=bool)
    for i, c in enumerate(cells):
        if cap[c] > 0:
            cap[c] -= 1
            take[i] = True
    return take


class TestMatched:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_capacity_loop(self, seed):
        rng = np.random.default_rng(seed)
        ncells = int(rng.integers(1, 30))
        cells = rng.integers(0, ncells, int(rng.integers(0, 200)))
        alloc = rng.integers(0, 6, ncells)
        np.testing.assert_array_equal(matched(alloc, cells), _capacity_loop(alloc, cells))

    def test_no_orders(self):
        got = matched(np.array([2, 0, 1]), np.empty(0, dtype=int))
        assert got.dtype == bool and got.size == 0

    def test_all_zero_alloc_serves_nothing(self):
        cells = np.array([0, 2, 2, 1, 0])
        assert not matched(np.zeros(3, dtype=int), cells).any()

    def test_one_cell_serves_its_first_orders(self):
        cells = np.full(7, 3)
        alloc = np.array([5, 5, 5, 4])
        np.testing.assert_array_equal(matched(alloc, cells), [True] * 4 + [False] * 3)
        np.testing.assert_array_equal(matched(alloc, cells), _capacity_loop(alloc, cells))

    @pytest.mark.parametrize("seed", range(10))
    def test_count_equals_capped_demand(self, seed):
        """Table IV's former per-cell count: min(drivers, orders) per cell."""
        rng = np.random.default_rng(seed)
        P = int(rng.integers(1, 9))
        cells = rng.integers(0, P * P, int(rng.integers(0, 300)))
        alloc = allocate(rng.random(P * P), int(rng.integers(0, 100)))
        want = np.minimum(alloc, np.bincount(cells, minlength=P * P)).sum()
        assert int(matched(alloc, cells).sum()) == want


def _tiny_orders():
    return pd.DataFrame(
        {
            "slot": [0, 0, 0, 1, 1],
            "cell": [0, 0, 3, 1, 1],
            "trip_km": [1.0, 2.0, 30.0, 1.0, 1.0],
            "revenue": [10.0, 5.0, 20.0, 7.0, 3.0],
        }
    )


def _pandas_simulate_day(orders, weights_by_slot, *, n_drivers):
    """The pandas ``simulate_day`` the array version replaced, kept as its
    oracle: group by slot, ``sort_values`` by revenue, boolean-frame picks."""
    free_at = np.zeros(n_drivers, dtype=int)
    by_slot = {
        int(s): g.sort_values("revenue", ascending=False)
        for s, g in orders.groupby("slot")
    }
    served = 0
    revenue = 0.0
    arrived = len(orders)
    for t in range(len(weights_by_slot)):
        idle = np.flatnonzero(free_at <= t)
        if idle.size == 0:
            continue
        alloc = allocate(weights_by_slot[t], idle.size)
        g = by_slot.get(t)
        if g is None:
            continue
        take = matched(alloc, g["cell"].to_numpy(int))
        k = int(take.sum())
        taken = g[take]
        served += k
        revenue += float(taken["revenue"].sum())
        busy = np.maximum(np.ceil(taken["trip_km"].to_numpy() / KM_PER_SLOT), 1).astype(int)
        free_at[idle[:k]] = t + busy
    return DispatchMetrics(served=served, revenue=revenue, arrived=arrived)


def _fuzz_day(rng):
    """A random day: few cells and fares on a coarse grid (many revenue ties),
    empty slots, orders past the weight array, fleets smaller than demand."""
    P = int(rng.integers(1, 6))
    slots = int(rng.integers(1, 12))
    n = int(rng.integers(0, 300))
    orders = pd.DataFrame({
        "slot": rng.integers(0, slots + 3, n).astype(np.int32),
        "cell": rng.integers(0, P * P, n),
        "trip_km": rng.random(n) * rng.choice([5.0, 60.0]),
        "revenue": rng.integers(1, 8, n) * 2.5 + rng.choice([0.0, 0.01], n),
    })
    w = rng.random((slots, P * P)) * (rng.random((slots, P * P)) < 0.7)
    return orders, w, int(rng.integers(0, 60))


class TestSimulateDayEqualsPandas:
    """The array simulator against the pandas one it replaced, ``==`` on
    every field (the revenue float included)."""

    def test_fuzzed_days(self):
        rng = np.random.default_rng(20221)
        for _ in range(250):
            orders, w, drivers = _fuzz_day(rng)
            want = _pandas_simulate_day(orders, w, n_drivers=drivers)
            assert simulate_day(orders, w, n_drivers=drivers) == want

    def test_tied_revenues_in_one_cell(self):
        """Three equal fares, one driver: the tie order picks the trip, and
        the trip decides whether slot 2's order is served."""
        for trips in ([1.0, 100.0, 1.0], [100.0, 1.0, 1.0], [1.0, 1.0, 100.0]):
            orders = pd.DataFrame({
                "slot": [0, 0, 0, 2], "cell": [0, 0, 0, 0],
                "trip_km": trips + [1.0], "revenue": [5.0, 5.0, 5.0, 5.0],
            })
            w = np.ones((3, 1))
            got = simulate_day(orders, w, n_drivers=1)
            assert got == _pandas_simulate_day(orders, w, n_drivers=1)
            assert got.served in (1, 2)

    def test_fuzz_sees_the_tie_order(self):
        """Reversing a day's rows moves only its revenue ties, and it changes
        the outcome of some fuzzed days: the fuzz above pins the tie order."""
        rng = np.random.default_rng(20221)
        moved = 0
        for _ in range(50):
            orders, w, drivers = _fuzz_day(rng)
            flipped = orders.iloc[::-1].reset_index(drop=True)
            moved += simulate_day(flipped, w, n_drivers=drivers) != _pandas_simulate_day(
                orders, w, n_drivers=drivers
            )
        assert moved > 0

    def test_empty_slots_and_orders_past_the_weights(self):
        orders = pd.DataFrame({
            "slot": [4, 0, 4, 7, 9], "cell": [1, 0, 1, 0, 1],
            "trip_km": [3.0, 2.0, 30.0, 1.0, 1.0], "revenue": [6.0, 4.0, 9.0, 2.0, 3.0],
        })
        w = np.ones((6, 4))  # slots 6.. have orders but no weights
        got = simulate_day(orders, w, n_drivers=8)
        assert got == _pandas_simulate_day(orders, w, n_drivers=8)
        assert got.arrived == 5 and got.served == 3

    def test_no_idle_driver(self):
        orders = pd.DataFrame({
            "slot": [0, 1, 2], "cell": [0, 0, 0],
            "trip_km": [60.0, 1.0, 1.0], "revenue": [1.0, 2.0, 3.0],
        })
        w = np.ones((3, 1))
        for drivers in (0, 1):
            got = simulate_day(orders, w, n_drivers=drivers)
            assert got == _pandas_simulate_day(orders, w, n_drivers=drivers)
            assert got.served == drivers

    def test_more_orders_than_drivers(self):
        orders = pd.DataFrame({
            "slot": [0] * 6, "cell": [0, 1, 0, 1, 0, 1],
            "trip_km": [1.0] * 6, "revenue": [1.0, 6.0, 3.0, 5.0, 2.0, 4.0],
        })
        w = np.ones((1, 4))
        got = simulate_day(orders, w, n_drivers=3)
        assert got == _pandas_simulate_day(orders, w, n_drivers=3)
        assert got.served <= 3

    def test_no_orders(self):
        orders = pd.DataFrame({"slot": [], "cell": [], "trip_km": [], "revenue": []})
        w = np.ones((4, 9))
        got = simulate_day(orders, w, n_drivers=5)
        assert got == _pandas_simulate_day(orders, w, n_drivers=5)
        assert got == DispatchMetrics(served=0, revenue=0.0, arrived=0)

    def test_test_day_policies(self, nyc):
        """POLAR- and LS-shaped weights on the TESTS test day."""
        spec = grid_spec(nyc.cfg, 4, 16)
        orders = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)
        preds = nyc.counts.tensor(4)[TESTS.test_day]
        fares = mean_fare_by_cell(nyc.counts.table, nyc.cfg, P=16, train_days=TESTS.train_days)
        for w in (polar_weights(preds, spec, 16), ls_weights(preds, spec, 16, fares)):
            for drivers in (20, 200):
                want = _pandas_simulate_day(orders, w, n_drivers=drivers)
                assert simulate_day(orders, w, n_drivers=drivers) == want


class TestSimulateDay:
    def test_perfect_weights_serve_everything(self):
        orders = _tiny_orders()
        w = np.zeros((2, 4))
        w[0, 0], w[0, 3] = 2, 1
        w[1, 1] = 2
        m = simulate_day(orders, w, n_drivers=5)
        assert m.served == 5 and m.arrived == 5
        assert m.revenue == pytest.approx(45.0)

    def test_wrong_cell_serves_nothing(self):
        orders = _tiny_orders()
        w = np.zeros((2, 4))
        w[:, 2] = 1.0  # all drivers sent to a cell with no demand
        m = simulate_day(orders, w, n_drivers=5)
        assert m.served == 0 and m.revenue == 0.0

    def test_capacity_binds_highest_revenue_first(self):
        orders = _tiny_orders()
        w = np.zeros((2, 4))
        w[0, 0] = 1.0
        m = simulate_day(orders, w, n_drivers=1)
        # one driver in cell 0 at slot 0: serves the 10.0 order, then is busy
        assert m.served == 1 and m.revenue == 10.0

    def test_busy_time_blocks_reuse(self):
        orders = pd.DataFrame(
            {
                "slot": [0, 1],
                "cell": [0, 0],
                "trip_km": [100.0, 1.0],  # first trip takes many slots
                "revenue": [1.0, 1.0],
            }
        )
        w = np.zeros((2, 1))
        w[:, 0] = 1.0
        m = simulate_day(orders, w, n_drivers=1)
        assert m.served == 1

    def test_served_never_exceeds_arrived(self, nyc):
        orders = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)
        w = np.ones((TESTS.slots, 256))
        m = simulate_day(orders, w, n_drivers=100)
        assert 0 < m.served <= m.arrived == len(orders)

    def test_deterministic(self, nyc):
        orders = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)
        w = np.ones((TESTS.slots, 256))
        m1 = simulate_day(orders, w, n_drivers=80)
        m2 = simulate_day(orders, w, n_drivers=80)
        assert m1 == m2

    def test_more_drivers_serve_no_fewer(self, nyc):
        orders = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)
        w = np.ones((TESTS.slots, 256))
        lo = simulate_day(orders, w, n_drivers=40)
        hi = simulate_day(orders, w, n_drivers=400)
        assert hi.served >= lo.served


def _per_slot_polar_weights(pred_by_slot, spec, P):
    """The per-slot stack ``polar_weights`` replaced, kept as its oracle."""
    return np.stack([spread_to_cells(p, spec, P) for p in pred_by_slot])


def _per_slot_ls_weights(pred_by_slot, spec, P, fare_by_cell):
    """The per-slot stack ``ls_weights`` replaced, kept as its oracle."""
    return np.stack([spread_to_cells(p, spec, P) * fare_by_cell for p in pred_by_slot])


class TestPolicies:
    @pytest.mark.parametrize("side", [2, 4, 7])
    def test_equal_per_slot_oracles_on_test_day(self, nyc, side):
        """Bit for bit on the test day's forecasts: Table III's replay."""
        spec = grid_spec(nyc.cfg, side, 16)
        tensor = nyc.counts.tensor(side)
        preds = DeepSTLike().fit(tensor, TESTS.train_days).predict(
            tensor, TESTS.test_day, np.arange(TESTS.slots)
        )
        fares = mean_fare_by_cell(nyc.counts.table, nyc.cfg, P=16, train_days=TESTS.train_days)
        assert np.array_equal(
            polar_weights(preds, spec, 16), _per_slot_polar_weights(preds, spec, 16)
        )
        assert np.array_equal(
            ls_weights(preds, spec, 16, fares), _per_slot_ls_weights(preds, spec, 16, fares)
        )

    def test_polar_weights_shape(self, nyc):
        spec = grid_spec(nyc.cfg, 4, 16)
        preds = np.ones((TESTS.slots, spec.n))
        w = polar_weights(preds, spec, 16)
        assert w.shape == (TESTS.slots, 256)

    def test_ls_weights_prefer_higher_fares(self, nyc):
        spec = grid_spec(nyc.cfg, 4, 16)
        preds = np.ones((1, spec.n))
        fares = np.ones(256)
        fares[7] = 50.0
        w = ls_weights(preds, spec, 16, fares)
        assert w[0, 7] == w[0].max()

    def test_mean_fare_matches_spark_groupby(self, nyc):
        spec = grid_spec(nyc.cfg, 16, 16)
        pdf = (
            with_grid_ids(nyc.events.where(F.col("day").isin(TESTS.train_days)), spec)
            .groupBy("hgrid")
            .agg(F.sum("revenue").alias("rev"), F.count(F.lit(1)).alias("cnt"))
            .toPandas()
        )
        rev, cnt = np.zeros(256), np.zeros(256)
        rev[pdf["hgrid"]] = pdf["rev"]
        cnt[pdf["hgrid"]] = pdf["cnt"]
        want = (rev + 8.0 * rev.sum() / cnt.sum()) / (cnt + 8.0)
        got = mean_fare_by_cell(nyc.counts.table, nyc.cfg, P=16, train_days=TESTS.train_days)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mean_fare_positive_everywhere(self, nyc):
        fares = mean_fare_by_cell(
            nyc.counts.table, nyc.cfg, P=16, train_days=TESTS.train_days
        )
        assert fares.shape == (256,)
        assert (fares > 0).all()  # shrinkage keeps cold cells at city mean
