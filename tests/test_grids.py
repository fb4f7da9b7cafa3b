"""Tests for MGrid/HGrid geometry (paper §II-A / Algorithm 3 line 1)."""
import math

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core.grids import grid_spec, hgrid_ids, mgrid_of_hgrid, with_grid_ids
from repro.oracle import assert_equivalent


@pytest.mark.parametrize("n_side", [1, 2, 3, 5, 7, 8, 11, 16])
@pytest.mark.parametrize("N_side", [16, 32])
class TestGridSpec:
    def test_m_matches_algorithm3(self, n_side, N_side):
        """m = ceil(sqrt(N/n))^2 (Algorithm 3 line 1)."""
        spec = grid_spec(sd.NYC, n_side, N_side)
        assert spec.m == math.ceil(math.sqrt(N_side**2 / n_side**2)) ** 2

    def test_constraint_nm_geq_N(self, n_side, N_side):
        spec = grid_spec(sd.NYC, n_side, N_side)
        assert spec.n * spec.m >= spec.N
        if n_side < N_side:
            assert spec.n * spec.m > spec.N or N_side % n_side == 0

    def test_fine_side_covers_N(self, n_side, N_side):
        spec = grid_spec(sd.NYC, n_side, N_side)
        assert spec.fine_side >= N_side
        assert spec.fine_side == spec.n_side * spec.m_side


def test_grid_spec_rejects_bad_n():
    with pytest.raises(ValueError):
        grid_spec(sd.NYC, 0, 16)
    with pytest.raises(ValueError):
        grid_spec(sd.NYC, 17, 16)


class TestWithGridIds:
    @pytest.fixture(scope="class")
    def tagged(self, nyc):
        spec = grid_spec(nyc.cfg, 4, 16)
        return spec, with_grid_ids(nyc.events, spec)

    def test_ids_in_range(self, tagged):
        spec, df = tagged
        row = df.agg(
            F.min("hgrid").alias("h0"),
            F.max("hgrid").alias("h1"),
            F.min("mgrid").alias("m0"),
            F.max("mgrid").alias("m1"),
        ).first()
        assert row["h0"] >= 0 and row["h1"] < spec.fine_side**2
        assert row["m0"] >= 0 and row["m1"] < spec.n

    def test_hgrid_mgrid_consistent(self, tagged):
        """mgrid must be derivable from hgrid alone (fy//m_side etc.)."""
        spec, df = tagged
        bad = df.where(
            (
                (F.col("hgrid") / spec.fine_side).cast("int") / spec.m_side
            ).cast("int")
            * spec.n_side
            + ((F.col("hgrid") % spec.fine_side) / spec.m_side).cast("int")
            != F.col("mgrid")
        )
        assert bad.count() == 0

    def test_mgrid_of_hgrid_matches_spark(self, tagged):
        """The numpy HGrid -> MGrid map agrees with the Catalyst columns."""
        spec, df = tagged
        pairs = df.select("hgrid", "mgrid").distinct().toPandas()
        mg = mgrid_of_hgrid(spec)
        np.testing.assert_array_equal(mg[pairs["hgrid"]], pairs["mgrid"])

    def test_cell_assignment_matches_duckdb(self, nyc, nyc_pdf):
        """Oracle: the Catalyst floor/least arithmetic = SQL in DuckDB."""
        spec = grid_spec(nyc.cfg, 4, 16)
        got = (
            with_grid_ids(nyc.events, spec)
            .groupBy("hgrid")
            .agg(F.count(F.lit(1)).alias("cnt"))
        )
        w, h, fs = nyc.cfg.width_km, nyc.cfg.height_km, spec.fine_side
        assert_equivalent(
            got,
            f"""
            SELECT least(CAST(floor(y / {h / fs}) AS INT), {fs - 1}) * {fs}
                   + least(CAST(floor(x / {w / fs}) AS INT), {fs - 1}) AS hgrid,
                   count(*) AS cnt
            FROM events GROUP BY 1
            """,
            events=nyc_pdf,
        )

    def test_boundary_clamped(self, spark, nyc):
        """An event exactly on the far boundary lands in the last cell."""
        import pandas as pd

        cfg = nyc.cfg
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "x": [cfg.width_km, 0.0],
                    "y": [cfg.height_km, 0.0],
                }
            )
        )
        spec = grid_spec(cfg, 4, 16)
        rows = with_grid_ids(df, spec).select("fx", "fy").collect()
        assert (rows[0]["fx"], rows[0]["fy"]) == (spec.fine_side - 1, spec.fine_side - 1)
        assert (rows[1]["fx"], rows[1]["fy"]) == (0, 0)
        # the numpy twin clamps the same way
        x, y = np.array([cfg.width_km, 0.0]), np.array([cfg.height_km, 0.0])
        np.testing.assert_array_equal(hgrid_ids(x, y, spec), [spec.fine_side**2 - 1, 0])


@pytest.mark.parametrize("n_side", [1, 3, 4, 7, 16])
def test_hgrid_lattice_complete(n_side):
    """mgrid_of_hgrid covers all fine_side^2 HGrids, m of them per MGrid."""
    spec = grid_spec(sd.NYC, n_side, 16)
    mg = mgrid_of_hgrid(spec)
    assert mg.size == spec.fine_side**2
    per_mgrid = np.unique(np.bincount(mg))
    assert per_mgrid.tolist() == [spec.m]
