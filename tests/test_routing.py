"""Tests for the DAIF-style route-planning substrate (§V-D)."""
import numpy as np
import pandas as pd
import pytest

from repro.dispatch.simulator import allocate, day_orders
from repro.experiments.config import TESTS
from repro.routing import daif
from repro.routing.daif import (
    CAP,
    MAX_PICKUP_KM,
    SEED,
    SLOT_KM,
    RoutePlanMetrics,
    _cell_centers,
    _pickup_radius,
    run_daif_day,
)


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


def _stop_queue_day(orders, weights_by_slot, *, width_km, height_km, n_vehicles):
    """The stop-by-stop planner ``run_daif_day`` replaced, kept as its oracle:
    a list of (stop, is_drop) per vehicle, walked one vehicle at a time, and
    one ``itertuples`` row inserted at a time. Returns (served, travel_km)."""
    slots, ncells = weights_by_slot.shape
    rng = np.random.default_rng(SEED)
    pos = np.column_stack(
        [rng.random(n_vehicles) * width_km, rng.random(n_vehicles) * height_km]
    )
    queues = [[] for _ in range(n_vehicles)]
    open_reqs = np.zeros(n_vehicles, dtype=int)
    tails = pos.copy()
    centers = _cell_centers(int(round(ncells**0.5)), width_km, height_km)
    served, travel = 0, 0.0
    by_slot = dict(iter(orders.groupby("slot")))
    for t in range(slots):
        for v in range(n_vehicles):
            left = SLOT_KM
            while queues[v] and left > 0:
                stop, is_drop = queues[v][0]
                d = float(np.hypot(*(stop - pos[v])))
                if d <= left:
                    pos[v] = stop
                    travel += d
                    left -= d
                    queues[v].pop(0)
                    open_reqs[v] -= is_drop
                else:
                    pos[v] = pos[v] + (stop - pos[v]) * (left / max(d, 1e-12))
                    travel += left
                    left = 0.0
            if not queues[v]:
                tails[v] = pos[v]
        idle = np.flatnonzero(open_reqs == 0)
        if idle.size:
            alloc = allocate(weights_by_slot[t], idle.size)
            step = centers[np.repeat(np.arange(ncells), alloc)] - pos[idle]
            d = np.hypot(step[:, 0], step[:, 1])
            pos[idle] = pos[idle] + step * np.minimum(1.0, SLOT_KM / np.maximum(d, 1e-12))[:, None]
            travel += float(np.minimum(d, SLOT_KM).sum())
            tails[idle] = pos[idle]
        if t not in by_slot:
            continue
        qlen = np.array([len(q) for q in queues], dtype=int)
        for r in by_slot[t].itertuples(index=False):
            pick = np.hypot(tails[:, 0] - r.x, tails[:, 1] - r.y)
            feas = (open_reqs < CAP) & (pick <= MAX_PICKUP_KM + SLOT_KM * (qlen // 2))
            if not feas.any():
                continue
            cand = np.flatnonzero(feas)
            v = int(cand[np.argmin(pick[cand])])
            dpt = np.array([r.dest_x, r.dest_y], dtype=float)
            queues[v] += [(np.array([r.x, r.y], dtype=float), False), (dpt, True)]
            open_reqs[v] += 1
            qlen[v] += 2
            tails[v] = dpt
            served += 1
    return served, travel


def _fleet_argmin_insert(requests, stops, n, pos):
    """Step 3 without windows, the oracle of ``daif._insert`` (same
    contract): each request in turn, by one masked argmin over the fleet."""
    tx, ty = np.where((n > 0)[:, None], stops[np.arange(len(n)), n - 1], pos).T.copy()
    radius = _pickup_radius(n)
    served = 0
    for ox, oy, dx, dy in requests.tolist():
        pick = np.hypot(tx - ox, ty - oy)
        feas = pick <= radius
        if not feas.any():
            continue
        v = int(np.argmin(np.where(feas, pick, np.inf)))
        stops[v, n[v] : n[v] + 2] = (ox, oy), (dx, dy)
        n[v] += 2
        tx[v], ty[v] = dx, dy
        radius[v] = _pickup_radius(n[v])
        served += 1
    return served


def _fleet_argmin_day(orders, weights_by_slot, **kw):
    """``run_daif_day`` with ``_fleet_argmin_insert`` as its step 3."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(daif, "_insert", _fleet_argmin_insert)
        return run_daif_day(orders, weights_by_slot, **kw)


def _orders(*rows):
    """Orders from (slot, x, y, dest_x, dest_y) rows."""
    return pd.DataFrame(list(rows), columns=["slot", "x", "y", "dest_x", "dest_y"])


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

    @pytest.mark.parametrize(
        "n_vehicles, served, travel_km",
        [(3, 18, 271.01920265627297), (8, 56, 747.2900134279904), (40, 248, 3348.850764893276)],
    )
    def test_exact_outcome(self, n_vehicles, served, travel_km):
        """Served count and travel are pinned bit for bit: the km of every
        stop reached is summed in the same order as the stop-by-stop walk."""
        reqs = _requests(n=400, seed=3, slots=6, w=20.0, h=20.0)
        w = np.random.default_rng(4).random((6, 9))
        m = run_daif_day(reqs, w, width_km=20.0, height_km=20.0, n_vehicles=n_vehicles)
        assert (m.served, m.travel_km) == (served, travel_km)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_stop_queue_oracle(self, seed):
        """Served count and travel equal the stop-by-stop walk exactly, on
        random days, lattices and fleets (zero vehicles included)."""
        rng = np.random.default_rng(seed)
        slots, P = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        w, h = rng.uniform(2, 40, 2)
        reqs = _requests(int(rng.integers(0, 300)), seed, slots, w, h)
        weights = rng.random((slots, P * P)) * (rng.random((slots, P * P)) > 0.3)
        kw = dict(width_km=w, height_km=h, n_vehicles=int(rng.integers(0, 12)))
        m = run_daif_day(reqs, weights, **kw)
        assert (m.served, m.travel_km) == _stop_queue_day(reqs, weights, **kw)

    @pytest.mark.parametrize("window", [1, 3, 8, daif.WINDOW])
    @pytest.mark.parametrize("seed", range(12))
    def test_windows_equal_fleet_argmin(self, monkeypatch, seed, window):
        """Windowed insertion equals one masked argmin over the fleet per
        request, exactly, on days whose slots span several windows and whose
        coordinates sit on a 0.5 or 2.5 km lattice, so that vehicles on cell
        centres and route tails tie."""
        rng = np.random.default_rng(100 + seed)
        slots, P = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        side, lattice = float(rng.choice([10.0, 20.0, 30.0])), float(rng.choice([0.5, 2.5]))
        reqs = _requests(int(rng.integers(0, 601)), seed, slots, side, side)
        xy = ["x", "y", "dest_x", "dest_y"]
        reqs[xy] = np.round(reqs[xy] / lattice) * lattice
        weights = rng.random((slots, P * P)) * (rng.random((slots, P * P)) > 0.3)
        kw = dict(width_km=side, height_km=side, n_vehicles=int(rng.integers(0, 41)))
        expected = _fleet_argmin_day(reqs, weights, **kw)
        monkeypatch.setattr(daif, "WINDOW", window)
        assert run_daif_day(reqs, weights, **kw) == expected

    def test_leg_exactly_the_km_left_is_reached(self):
        """A leg as long as the km left in the slot ends at its stop: the
        vehicle is idle again and repositions in the same slot. One vehicle
        settles on the centre (5, 5) of the one cell in slots 0 and 1, takes
        a request there to (20, 5) in slot 2, and drives its SLOT_KM leg in
        slot 3; the slot-3 request at (20, 5) then finds it gone."""
        reqs = _orders((2, 5.0, 5.0, 20.0, 5.0), (3, 20.0, 5.0, 20.0, 6.0))
        kw = dict(width_km=10.0, height_km=10.0, n_vehicles=1)
        m = run_daif_day(reqs, np.ones((4, 1)), **kw)
        assert (m.served, m.travel_km) == _stop_queue_day(reqs, np.ones((4, 1)), **kw)
        assert m.served == 1

    def test_equal_distances_go_to_the_lower_index(self):
        """Vehicles 0 and 1 settle on the cell centres (2.5, 2.5) and
        (7.5, 2.5); a request midway goes to vehicle 0, which then drives
        back further than vehicle 1 would."""
        reqs = _orders((2, 5.0, 2.5, 9.5, 2.5))
        w = np.tile([1.0, 1.0, 0.0, 0.0], (4, 1))
        kw = dict(width_km=10.0, height_km=10.0, n_vehicles=2)
        m = run_daif_day(reqs, w, **kw)
        assert (m.served, m.travel_km) == _stop_queue_day(reqs, w, **kw)
        assert m.served == 1

    def test_nan_coordinates_are_never_feasible(self):
        """A NaN origin is rejected, and a NaN drop leaves its vehicle with
        no feasible request. Vehicles 0 and 1 sit on (2.5, 2.5) and
        (7.5, 2.5) in the last slot: vehicle 0 takes the NaN-drop request,
        vehicle 1 the next one at its feet, and vehicle 1 (radius now
        MAX_PICKUP_KM + SLOT_KM) the third."""
        nan = float("nan")
        rows = [
            (2, 2.5, 2.5, nan, 2.5),
            (2, 7.5, 2.5, 7.5, 12.5),
            (2, 7.5, 25.0, 7.5, 30.0),  # 12.5 km from vehicle 1's new tail
        ]
        day = _orders((2, nan, 2.5, 5.0, 5.0), *rows)
        w = np.tile([1.0, 1.0, 0.0, 0.0], (3, 1))
        kw = dict(width_km=10.0, height_km=10.0, n_vehicles=2)
        m = run_daif_day(day, w, **kw)
        assert (m.served, m.travel_km) == _stop_queue_day(day, w, **kw)
        without = run_daif_day(_orders(*rows), w, **kw)
        assert (m.served, m.travel_km) == (without.served, without.travel_km)
        assert m.served == 3

    def test_runs_on_real_city_day(self, nyc):
        orders = day_orders(nyc.counts.table, nyc.cfg, day=TESTS.test_day, P=16)
        w = np.ones((TESTS.slots, 256))
        kw = dict(width_km=nyc.cfg.width_km, height_km=nyc.cfg.height_km, n_vehicles=25)
        m = run_daif_day(orders, w, **kw)
        assert m == _fleet_argmin_day(orders, w, **kw)
        assert 0 < m.served <= m.arrived
        assert m.travel_km > 0
