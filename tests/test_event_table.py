"""The driver-side event table and the count tables binned from it.

Every count table is a numpy bincount over one :class:`EventTable` per
city, the generator's own columns; an Arrow collect of the city's Spark
view (:func:`_collect`), the Spark aggregations ``demand_counts`` /
``alpha_counts`` and the Catalyst projection ``with_grid_ids`` are the
oracles these tests hold it to, exactly.
"""
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core import grids
from repro.core.alpha import alpha_by_hgrid, alpha_counts
from repro.core.grids import EventTable, grid_spec, hgrid_ids, with_grid_ids
from repro.core.model_error import demand_counts, demand_tensor
from repro.core.upper_bound import GridCounts
from repro.experiments.config import TESTS
from repro.synth_data import NYC, taxi_trips, taxi_trips_pdf


def _dense_tensor(events, spec, st) -> np.ndarray:
    pdf = demand_counts(events, spec).toPandas()
    t = np.zeros((st.days, st.slots, spec.n))
    t[pdf["day"].to_numpy(int), pdf["slot"].to_numpy(int), pdf["mgrid"].to_numpy(int)] = (
        pdf["cnt"].to_numpy(float)
    )
    return t


def _dense_alphas(events, spec, st) -> np.ndarray:
    pdf = alpha_counts(events, spec, train_days=st.train_days).toPandas()
    a = np.zeros((st.slots, spec.fine_side**2))
    a[pdf["slot"].to_numpy(int), pdf["hgrid"].to_numpy(int)] = (
        pdf["cnt"].to_numpy(float) / len(st.train_days)
    )
    return a


def _collect(events) -> EventTable:
    """Oracle: one Arrow collect of ``events``, converted column by column."""
    names = [f.name for f in dataclasses.fields(EventTable)]
    tbl = events.select(*names).toArrow()
    return EventTable(**{name: tbl.column(name).to_numpy() for name in names})


def test_parquet_view_rows_equal_generator_in_order(spark, nyc):
    """The Spark view, read back in more than one partition, holds the
    generator's rows in the generator's order, and so does the city's table."""
    key = "spark.sql.files.maxPartitionBytes"
    old = spark.conf.get(key)
    spark.conf.set(key, str(1 << 20))
    try:
        view = taxi_trips(spark, NYC, sf=TESTS.sf, days=TESTS.days)
        assert view.rdd.getNumPartitions() > 1
        got = _collect(view)
    finally:
        spark.conf.set(key, old)
    want = taxi_trips_pdf(NYC, sf=TESTS.sf, days=TESTS.days)
    city = _collect(nyc.events)
    for f in dataclasses.fields(EventTable):
        col = want[f.name].to_numpy()
        for table in (got, city, nyc.counts.table):
            np.testing.assert_array_equal(getattr(table, f.name), col)
            assert getattr(table, f.name).dtype == col.dtype


def test_table_of_a_frame_taxi_trips_did_not_make_raises(spark, nyc, nyc_pdf):
    """No fallback collect: a hand-made or derived frame has no event table."""
    st = TESTS
    for frame in (spark.createDataFrame(nyc_pdf.head(100)), nyc.events.select("*")):
        counts = GridCounts(frame, nyc.cfg, st.N_side, st.days, st.slots, st.train_days)
        with pytest.raises(ValueError, match="taxi_trips"):
            counts.table


@pytest.mark.parametrize("n_side", [1, 4, 7, 10])
def test_hgrid_ids_match_catalyst_row_for_row(nyc, n_side):
    spec = grid_spec(nyc.cfg, n_side, 16)
    want = with_grid_ids(nyc.events, spec).select("hgrid").toPandas()["hgrid"].to_numpy()
    table = nyc.counts.table
    np.testing.assert_array_equal(hgrid_ids(table.x, table.y, spec), want)


@pytest.mark.parametrize("n_side", range(TESTS.s_min, TESTS.s_max + 1))
def test_count_tables_equal_spark_at_every_swept_side(nyc, n_side):
    spec = nyc.counts.spec(n_side)
    np.testing.assert_array_equal(nyc.counts.tensor(n_side), _dense_tensor(nyc.events, spec, TESTS))
    alphas, mg = nyc.counts.alphas(n_side)
    np.testing.assert_array_equal(alphas, _dense_alphas(nyc.events, spec, TESTS))
    np.testing.assert_array_equal(mg, grids.mgrid_of_hgrid(spec))


@pytest.mark.parametrize("n_side", [4, 16, 32, 76])
def test_count_tables_equal_spark_on_paper_lattice(nyc, n_side):
    """The paper's N = 128^2 lattice (fine_side up to 152) on the TESTS events."""
    st = TESTS
    counts = GridCounts(nyc.events, nyc.cfg, 128, st.days, st.slots, st.train_days)
    spec = counts.spec(n_side)
    np.testing.assert_array_equal(counts.tensor(n_side), _dense_tensor(nyc.events, spec, st))
    np.testing.assert_array_equal(counts.alphas(n_side)[0], _dense_alphas(nyc.events, spec, st))


def _synthetic(rows: int, seed: int = 0) -> EventTable:
    """``rows`` events in random order (the worst case for the key span)."""
    rng = np.random.default_rng(seed)
    xy = rng.random((4, rows)) * np.array([[NYC.width_km], [NYC.height_km]] * 2)
    return EventTable(
        day=rng.integers(0, TESTS.days, rows, dtype=np.int32),
        slot=rng.integers(0, TESTS.slots, rows, dtype=np.int32),
        x=xy[0], y=xy[1], dest_x=xy[2], dest_y=xy[3],
        revenue=rng.random(rows) * 30.0,
    )


def _bin_peak(table: EventTable, spec) -> int:
    tracemalloc.start()
    try:
        demand_tensor(table, spec, days=TESTS.days, slots=TESTS.slots)
        alpha_by_hgrid(table, spec, train_days=TESTS.train_days, slots=TESTS.slots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_binning_scratch_does_not_grow_with_events():
    """4x the events (two blocks -> eight) must not raise the binning peak:
    an unblocked pass over 2^20 rows would take ~80 MB of temporaries."""
    spec = grid_spec(NYC, 4, 16)
    small, large = _synthetic(2 * grids._BLOCK_ROWS), _synthetic(8 * grids._BLOCK_ROWS)
    small_peak, large_peak = _bin_peak(small, spec), _bin_peak(large, spec)
    assert large_peak <= small_peak + 2**20
    assert large_peak < 32 * 2**20


def test_blocked_binning_equals_one_shot():
    table = _synthetic(3 * grids._BLOCK_ROWS + 17, seed=1)
    spec = grid_spec(NYC, 3, 16)
    mg = grids.mgrid_of_hgrid(spec)[hgrid_ids(table.x, table.y, spec)]
    flat = (table.day.astype(np.int64) * TESTS.slots + table.slot) * spec.n + mg
    want = np.bincount(flat, minlength=TESTS.days * TESTS.slots * spec.n)
    got = demand_tensor(table, spec, days=TESTS.days, slots=TESTS.slots)
    np.testing.assert_array_equal(got.ravel(), want.astype(float))
    cells = spec.fine_side**2
    keep = np.isin(table.day, TESTS.train_days)
    rev = np.bincount(hgrid_ids(table.x, table.y, spec)[keep], table.revenue[keep], cells)
    got_rev = table.bincount(spec, cells, days=TESTS.train_days, weights="revenue")
    np.testing.assert_allclose(got_rev, rev, rtol=1e-12)
    assert got_rev.sum() > 0


def _all_columns_bincount(table, spec, size, key=None, *, days=None, slot=None, weights=None):
    """The ``bincount`` that copied all seven columns of every filtered block,
    kept as the oracle of the one that copies only the columns it reads."""
    out = np.zeros(size)
    for lo in range(0, table.day.size, grids._BLOCK_ROWS):
        b = table.rows(slice(lo, lo + grids._BLOCK_ROWS))
        if days is not None:
            b = b.rows(np.isin(b.day, days))
        if slot is not None:
            b = b.rows(b.slot == slot)
        h = hgrid_ids(b.x, b.y, spec)
        k = h if key is None else key(b, h)
        if k.size:
            k0 = int(k.min())
            c = np.bincount(k - k0, None if weights is None else getattr(b, weights))
            out[k0:k0 + c.size] += c
    return out


_SPEC = grid_spec(NYC, 5, 16)
_CELLS = _SPEC.fine_side**2
_KEYS = {
    "hgrid": (None, _CELLS),
    "slot-hgrid": (lambda b, h: b.slot * _CELLS + h, TESTS.slots * _CELLS),
    "day-slot-mgrid": (
        lambda b, h: (b.day * TESTS.slots + b.slot) * _SPEC.n + grids.mgrid_of_hgrid(_SPEC)[h],
        TESTS.days * TESTS.slots * _SPEC.n,
    ),
    "dest": (lambda b, h: hgrid_ids(b.dest_x, b.dest_y, _SPEC), _CELLS),
}


@pytest.mark.parametrize(
    "days, slot, weights, key",
    list(itertools.product(
        [None, TESTS.train_days, [TESTS.test_day], []], [None, 17], [None, "revenue"], sorted(_KEYS)
    )),
)
def test_lean_bincount_equals_all_columns(days, slot, weights, key):
    """Every mix of day filter, slot filter, weights and key, over blocks in
    random order and a short last block."""
    table = _synthetic(2 * grids._BLOCK_ROWS + 1001, seed=5)
    fn, size = _KEYS[key]
    got = table.bincount(_SPEC, size, fn, days=days, slot=slot, weights=weights)
    want = _all_columns_bincount(table, _SPEC, size, fn, days=days, slot=slot, weights=weights)
    np.testing.assert_array_equal(got, want)
    assert (got.sum() > 0) == (days != [])
