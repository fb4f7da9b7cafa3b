"""Tests for the synthetic-city generator (DESIGN.md §3 substitution)."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd

ROOT = Path(__file__).resolve().parents[1]

CITY_LIST = [sd.NYC, sd.CHENGDU, sd.XIAN]


@pytest.mark.parametrize("cfg", CITY_LIST, ids=lambda c: c.name)
class TestIntensityField:
    def test_normalised(self, cfg):
        f = sd.intensity_field(cfg, 64)
        assert f.shape == (64, 64)
        assert f.min() >= 0
        assert abs(f.sum() - 1.0) < 1e-9

    def test_resolution_consistent_mass(self, cfg):
        """Aggregating a 128-lattice field 2x2 ~ the 64-lattice field."""
        hi = sd.intensity_field(cfg, 128)
        lo = sd.intensity_field(cfg, 64)
        agg = hi.reshape(64, 2, 64, 2).sum(axis=(1, 3))
        assert np.abs(agg - lo).max() < 5e-3

    def test_floor_is_mass_fraction(self, cfg):
        """The uniform component carries ~cfg.floor of total mass: every
        cell's intensity is at least floor/side^2."""
        f = sd.intensity_field(cfg, 64)
        assert f.min() >= cfg.floor / 64**2 * 0.999


class TestUnevennessOrdering:
    def test_nyc_most_uneven_xian_most_even(self):
        """Paper §V-A/C ordering: NYC > Chengdu > Xi'an in concentration,
        measured as the normalised D_alpha of the intensity field itself."""
        spread = {}
        for cfg in CITY_LIST:
            f = sd.intensity_field(cfg, 64).ravel()
            spread[cfg.name] = np.abs(f - f.mean()).sum()  # field sums to 1
        assert spread["nyc"] > spread["chengdu"] > spread["xian"]

    @pytest.mark.parametrize("q", [0.05, 0.10, 0.20])
    def test_nyc_top_cells_carry_more_mass(self, q):
        f_nyc = np.sort(sd.intensity_field(sd.NYC, 64).ravel())[::-1]
        f_xian = np.sort(sd.intensity_field(sd.XIAN, 64).ravel())[::-1]
        k = int(q * f_nyc.size)
        assert f_nyc[:k].sum() > f_xian[:k].sum()


class TestTemporalProfile:
    def test_sums_to_one(self):
        assert abs(sd.temporal_profile(48).sum() - 1.0) < 1e-12

    def test_has_am_and_pm_peaks(self):
        p = sd.temporal_profile(48)
        am = p[14:20].max()
        pm = p[34:40].max()
        night = p[0:8].max()
        assert am > night and pm > night

    @pytest.mark.parametrize("slots", [24, 48, 96])
    def test_any_slot_count(self, slots):
        p = sd.temporal_profile(slots)
        assert p.shape == (slots,) and abs(p.sum() - 1.0) < 1e-12

    def test_day_factors_weekend_damped(self):
        f = sd.day_factors(14, sd.NYC)
        assert (f[:5] == 1.0).all() and (f[5:7] == sd.NYC.weekend_factor).all()
        assert (f[7:12] == 1.0).all()


@pytest.mark.parametrize("cfg", CITY_LIST, ids=lambda c: c.name, scope="class")
class TestTrips:
    @pytest.fixture(scope="class")
    def trips(self, cfg):
        return sd.taxi_trips_pdf(cfg, sf=0.005, days=8)

    def test_schema(self, trips):
        assert list(trips.columns) == [
            "day", "slot", "x", "y", "dest_x", "dest_y", "revenue",
        ]

    def test_coordinates_in_city(self, cfg, trips):
        assert trips["x"].between(0, cfg.width_km).all()
        assert trips["y"].between(0, cfg.height_km).all()
        assert trips["dest_x"].between(0, cfg.width_km).all()
        assert trips["dest_y"].between(0, cfg.height_km).all()

    def test_days_and_slots_in_range(self, trips):
        assert trips["day"].between(0, 7).all()
        assert trips["slot"].between(0, 47).all()

    def test_revenue_positive(self, trips):
        assert (trips["revenue"] >= 1.0).all()

    def test_deterministic(self, cfg, trips):
        again = sd.taxi_trips_pdf(cfg, sf=0.005, days=8)
        pd.testing.assert_frame_equal(trips, again)

    def test_seed_changes_sample(self, cfg, trips):
        other = sd.taxi_trips_pdf(cfg, sf=0.005, days=8, seed=999)
        assert len(other) != len(trips) or not trips["x"].equals(other["x"])

    def test_volume_tracks_daily_orders(self, cfg, trips):
        """Mean weekday volume within 10% of daily_orders * sf."""
        weekday = trips[trips["day"] % 7 < 5]
        per_day = weekday.groupby("day").size().mean()
        assert per_day == pytest.approx(cfg.daily_orders * 0.005, rel=0.1)

    def test_weekends_are_quieter(self, cfg, trips):
        by_day = trips.groupby("day").size()
        week = by_day[[d for d in by_day.index if d % 7 < 5]].mean()
        wend = by_day[[d for d in by_day.index if d % 7 >= 5]].mean()
        assert wend < week

    def test_am_peak_busier_than_night(self, trips):
        by_slot = trips.groupby("slot").size()
        assert by_slot.loc[14:20].mean() > by_slot.loc[0:6].mean()


def test_true_cell_means_match_empirical_counts():
    """Generated counts agree with the analytic per-cell means."""
    cfg = sd.NYC
    trips = sd.taxi_trips_pdf(cfg, sf=0.05, days=12)
    mu = sd.true_cell_means(cfg, sf=0.05, slot=17, side=32)
    week = trips[(trips["day"] % 7 < 5) & (trips["slot"] == 17)]
    ix = np.minimum((week["x"] / cfg.width_km * 32).astype(int), 31)
    iy = np.minimum((week["y"] / cfg.height_km * 32).astype(int), 31)
    counts = np.zeros((32, 32))
    np.add.at(counts, (iy.to_numpy(), ix.to_numpy()), 1.0)
    n_days = week["day"].nunique()
    est = counts / n_days
    # compare aggregate mass in the hottest decile (Poisson noise at cell level)
    hot = mu.ravel() >= np.quantile(mu, 0.9)
    assert est.ravel()[hot].sum() == pytest.approx(mu.ravel()[hot].sum(), rel=0.15)


def test_spark_frame_matches_pandas(spark):
    pdf = sd.taxi_trips_pdf(sd.XIAN, sf=0.005, days=3)
    sdf = sd.taxi_trips(spark, sd.XIAN, sf=0.005, days=3)
    assert sdf.count() == len(pdf)
    assert [f.name for f in sdf.schema.fields] == list(pdf.columns)


def test_spark_view_is_a_file_scan(spark, capsys):
    """The view scans the generator's Parquet file; no rows sit in the plan."""
    sd.taxi_trips(spark, sd.XIAN, sf=0.005, days=3).explain()
    plan = capsys.readouterr().out
    assert "FileScan parquet" in plan
    assert "LocalTableScan" not in plan


#: a session of its own writes a view, stops, and reports whether the file
#: existed before and after the stop
_VIEW_LIFETIME = """
import os, sys
from urllib.parse import urlparse
from _session import get_spark
from repro import synth_data as sd
spark = get_spark("view-lifetime")
[uri] = sd.taxi_trips(spark, sd.XIAN, sf=0.001, days=1).inputFiles()
path = urlparse(uri).path
before = os.path.isfile(path)
spark.stop()
print(before, os.path.exists(path))
"""


def test_view_file_is_gone_after_its_session_stops():
    env = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "jobs"), str(ROOT / "src")]),
        SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g",
    )
    out = subprocess.run(
        [sys.executable, "-c", _VIEW_LIFETIME], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["True", "False"]


def test_columns_outgrowing_their_first_size_are_unchanged(monkeypatch):
    """Arrays sized below the realised total grow and keep every row."""
    want = sd.taxi_trips_pdf(sd.XIAN, sf=0.005, days=3)
    monkeypatch.setattr(sd, "_CAPACITY_SIGMAS", -1e9)
    pd.testing.assert_frame_equal(sd.taxi_trips_pdf(sd.XIAN, sf=0.005, days=3), want)
