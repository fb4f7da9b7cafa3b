"""Tests for the DAIF-style route-planning substrate (§V-D)."""
import numpy as np
import pandas as pd
import pytest

from repro.dispatch.simulator import day_orders
from repro.experiments.config import TESTS
from repro.routing.daif import CAP, RoutePlanMetrics, _cell_centers, run_daif_day


def _requests(n=20, seed=1, slots=4, w=10.0, h=10.0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "slot": rng.integers(0, slots, n),
            "x": rng.random(n) * w,
            "y": rng.random(n) * h,
            "dest_x": rng.random(n) * w,
            "dest_y": rng.random(n) * h,
        }
    )


def test_cell_centers():
    c = _cell_centers(2, 10.0, 20.0)
    assert c.shape == (4, 2)
    np.testing.assert_allclose(c[0], [2.5, 5.0])
    np.testing.assert_allclose(c[3], [7.5, 15.0])


class TestRunDaifDay:
    def test_metrics_consistent(self):
        reqs = _requests()
        w = np.ones((4, 4))
        m = run_daif_day(reqs, w, width_km=10, height_km=10, n_vehicles=5)
        assert isinstance(m, RoutePlanMetrics)
        assert 0 <= m.served <= m.arrived == len(reqs)
        assert m.unified_cost == pytest.approx(
            m.travel_km + 15.0 * (m.arrived - m.served)
        )

    def test_deterministic(self):
        reqs = _requests()
        w = np.ones((4, 4))
        kw = dict(width_km=10, height_km=10, n_vehicles=5)
        assert run_daif_day(reqs, w, **kw) == run_daif_day(reqs, w, **kw)

    def test_zero_vehicles_serves_nothing(self):
        reqs = _requests()
        m = run_daif_day(
            reqs, np.ones((4, 4)), width_km=10, height_km=10, n_vehicles=0
        )
        assert m.served == 0 and m.travel_km == 0.0

    def test_more_vehicles_serve_no_fewer(self):
        reqs = _requests(n=60)
        w = np.ones((4, 4))
        kw = dict(width_km=10, height_km=10)
        lo = run_daif_day(reqs, w, n_vehicles=2, **kw)
        hi = run_daif_day(reqs, w, n_vehicles=30, **kw)
        assert hi.served >= lo.served

    def test_capacity_limits_concurrent_requests(self):
        # 5 simultaneous requests at the centre of the one P = 1 cell, where
        # the single vehicle is repositioned: only CAP of them are inserted
        assert CAP == 2
        reqs = pd.DataFrame(
            {
                "slot": [0] * 5,
                "x": [5.0] * 5,
                "y": [5.0] * 5,
                "dest_x": [9.0] * 5,
                "dest_y": [9.0] * 5,
            }
        )
        m = run_daif_day(
            reqs, np.ones((1, 1)), width_km=10, height_km=10, n_vehicles=1
        )
        assert m.served == 2

    def test_pickup_radius_rejects_far_requests(self):
        reqs = pd.DataFrame(
            {"slot": [0], "x": [50.0], "y": [50.0], "dest_x": [51.0], "dest_y": [50.0]}
        )
        # vehicle forced to the opposite corner via hot-cell weights
        w = np.zeros((1, 4))
        w[0, 0] = 1.0
        m = run_daif_day(reqs, w, width_km=60, height_km=60, n_vehicles=1)
        assert m.served == 0

    def test_rejects_non_square_lattice(self):
        with pytest.raises(ValueError, match="square"):
            run_daif_day(
                _requests(), np.ones((4, 3)), width_km=10, height_km=10, n_vehicles=5
            )

    def test_runs_on_real_city_day(self, nyc):
        orders = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)
        w = np.ones((TESTS.slots, 256))
        m = run_daif_day(
            orders, w, width_km=nyc.cfg.width_km,
            height_km=nyc.cfg.height_km, n_vehicles=25,
        )
        assert 0 < m.served <= m.arrived
        assert m.travel_km > 0
