"""DAIF-style demand-aware route planning (substitute for Wang et al.,
VLDB'20 — see DESIGN.md §4).

A fleet of shared vehicles (capacity ``CAP`` concurrent requests) serves
ride requests by greedy minimum-detour insertion; *demand-awareness* enters
exactly where the paper's does: idle vehicles are repositioned toward the
cells the per-MGrid forecast (spread uniformly, as always) marks as hot.
Metrics match Table III: number of served requests and the unified cost
(total travel distance + ``PENALTY_KM`` per unserved request).

Each vehicle's plan is its first ``n`` rows of a ``(2 * CAP, 2)`` stop
array: FIFO (pickup, drop) pairs, maybe behind one drop whose pickup is done.
So a vehicle has ``(n + 1) // 2`` open requests, is idle when ``n == 0``, and
its route tail is its last stop (its position when idle). World model per
30-minute slot:

1. all vehicles advance along their plans at ``SPEED_KMH`` together, one
   stop per round, for at most ``2 * CAP`` rounds;
2. idle vehicles move (speed-limited) toward forecast-hot cells — the same
   largest-remainder allocation as the dispatch simulator;
3. each new request is appended (origin then destination) to the feasible
   vehicle with the smallest detour, where feasible means the vehicle
   carries < ``CAP`` open requests and its route tail is within
   ``MAX_PICKUP_KM`` (plus a backlog allowance); infeasible requests are
   rejected; ties go to the lowest vehicle index. Requests are inserted in
   turn, ``WINDOW`` at a time, with the outcome of one masked argmin over
   the fleet per request, bit for bit. A window builds two distance
   matrices, ``inf`` where out of range: the route tails of the vehicles
   not yet full to the window's origins (range: each vehicle's radius), and
   the window's drops to its origins (range: ``MAX_PICKUP_KM + SLOT_KM``).
   It also counts each request's feasible vehicles. The next request with
   a nonzero count goes to its column's argmin; those skipped on the way
   have no feasible vehicle and are rejected. An insertion changes one
   vehicle: with ``CAP == 2`` it is now full (its row becomes ``inf``), or
   it was idle and now has the request's drop as its tail and
   ``MAX_PICKUP_KM + SLOT_KM`` as its radius (its row becomes the drop's
   row of the second matrix); the counts follow. No vehicle stops being
   full within a slot, so each request sees the tails and radii that
   one-at-a-time insertion shows it.
"""
import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.dispatch.simulator import allocate

SPEED_KMH = 30.0
SLOT_HOURS = 0.5  # 30-minute slots
#: km of travel per vehicle per slot
SLOT_KM = SPEED_KMH * SLOT_HOURS
#: unified-cost charge for each rejected request, in km of travel
PENALTY_KM = 15.0
#: concurrent open requests per vehicle
CAP = 2
#: pickup radius around a vehicle's route tail, before the backlog allowance
MAX_PICKUP_KM = 2.5
#: seed of the initial vehicle placement
SEED = 0
#: requests per window of step 3
WINDOW = 32
#: the one pickup radius a vehicle can have after an insertion: with
#: CAP = 2 only an idle vehicle (0 -> 2 stops) is not full afterwards
_REFILL_KM = MAX_PICKUP_KM + SLOT_KM


@dataclass(frozen=True)
class RoutePlanMetrics:
    """Day-level outcome of the route planner."""

    served: int
    arrived: int
    travel_km: float
    unified_cost: float


def _cell_centers(P: int, width: float, height: float) -> np.ndarray:
    """(P*P, 2) centre coordinates (km) of the positioning lattice cells."""
    cx = (np.arange(P) + 0.5) * (width / P)
    cy = (np.arange(P) + 0.5) * (height / P)
    gx, gy = np.meshgrid(cx, cy)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _pickup_radius(n: np.ndarray) -> np.ndarray:
    """Pickup radius (km) around the tail of an ``n``-stop plan: ``MAX_PICKUP_KM``
    plus ``SLOT_KM`` per two stops queued, or -1 for a full vehicle."""
    return np.where((n + 1) // 2 < CAP, MAX_PICKUP_KM + SLOT_KM * (n // 2), -1.0)


def _masked_hypot(a: np.ndarray, b: np.ndarray, radius: float | np.ndarray) -> np.ndarray:
    """(len(a), len(b)) distances from points ``a`` to points ``b``, ``inf``
    where not within ``radius`` (NaN included, as ``NaN <= r`` is False)."""
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    d[~(d <= radius)] = np.inf
    return d


def _insert(requests: np.ndarray, stops: np.ndarray, n: np.ndarray, pos: np.ndarray) -> int:
    """Step 3 for one slot: insert ``requests`` (rows x, y, dest_x, dest_y)
    in turn, each at the feasible vehicle with the nearest route tail (the
    lowest index among equals), updating ``stops`` and ``n`` in place.
    Returns the number inserted."""
    radius = _pickup_radius(n)
    tail = np.where((n > 0)[:, None], stops[np.arange(len(n)), n - 1], pos)
    served = 0
    for w in range(0, len(requests), WINDOW):
        act = np.flatnonzero(radius > 0)
        if not act.size:
            break  # every vehicle is full for the rest of the slot
        win = requests[w : w + WINDOW]
        pick = _masked_hypot(tail[act], win[:, :2], radius[act, None])
        refill = _masked_hypot(win[:, 2:], win[:, :2], _REFILL_KM)
        ok, refill_ok = pick < np.inf, refill < np.inf
        count = ok.sum(axis=0)  # feasible vehicles per request
        na = n[act].tolist()
        took, at, req = [], [], []
        k = 0
        while (ahead := count[k:].nonzero()[0]).size:
            k += int(ahead[0])
            a = int(pick[:, k].argmin())
            count -= ok[a]
            if na[a] == 0:  # was idle: open, with request k's drop as its tail
                pick[a], ok[a] = refill[k], refill_ok[k]
                count += ok[a]
            else:  # now full
                pick[a], ok[a] = np.inf, False
            took.append(a)
            at.append(na[a])
            req.append(k)
            na[a] += 2
            k += 1
        if took:
            v, at = act[took], np.array(at)
            stops[v, at] = win[req, :2]
            stops[v, at + 1] = win[req, 2:]
            n[act] = na
            tail[v] = stops[v, n[v] - 1]
            radius[v] = _pickup_radius(n[v])
            served += len(took)
    return served


def run_daif_day(
    orders: pd.DataFrame,
    weights_by_slot: np.ndarray,
    *,
    width_km: float,
    height_km: float,
    n_vehicles: int,
) -> RoutePlanMetrics:
    """Run one day of insertion-based route planning.

    ``orders`` must carry continuous coordinates (columns x, y, dest_x,
    dest_y, slot). ``weights_by_slot`` is the (slots, P*P) forecast-derived
    repositioning weight, one row per slot of the day; its width fixes the
    positioning lattice and must be a square. Deterministic: the initial
    vehicle placement is drawn with ``SEED``.
    """
    slots, ncells = weights_by_slot.shape
    P = math.isqrt(ncells)
    if P * P != ncells:
        raise ValueError(f"weights_by_slot has {ncells} columns, not a square P*P lattice")
    rng = np.random.default_rng(SEED)
    pos = np.column_stack(
        [rng.random(n_vehicles) * width_km, rng.random(n_vehicles) * height_km]
    )
    stops = np.zeros((n_vehicles, 2 * CAP, 2))  # vehicle v's plan: stops[v, :n[v]]
    n = np.zeros(n_vehicles, dtype=int)
    centers = _cell_centers(P, width_km, height_km)
    requests = orders[["x", "y", "dest_x", "dest_y"]].to_numpy(float)
    slot = orders["slot"].to_numpy()
    served = 0
    travel = 0.0
    for t in range(slots):
        # 1. advance vehicles along their plans; round r's km in column r, so
        # the vehicle-major running sum adds them in the stop-by-stop order
        left = np.full(n_vehicles, SLOT_KM)
        km = np.zeros((n_vehicles, 2 * CAP))
        for r in range(2 * CAP):
            go = np.flatnonzero((n > 0) & (left > 0))
            step = stops[go, 0] - pos[go]
            d = np.hypot(step[:, 0], step[:, 1])
            km[go, r] = np.minimum(d, left[go])  # the whole leg, or what is left
            arrive = d <= left[go]
            part = pos[go] + step * (km[go, r] / np.maximum(d, 1e-12))[:, None]
            pos[go] = np.where(arrive[:, None], stops[go, 0], part)
            left[go] -= km[go, r]
            done = go[arrive]
            stops[done, :-1] = stops[done, 1:]
            n[done] -= 1
        travel = float(np.add.accumulate(np.append(travel, km))[-1])
        # 2. move idle vehicles toward forecast-hot cells (speed-limited)
        idle = np.flatnonzero(n == 0)
        if idle.size:
            alloc = allocate(weights_by_slot[t], idle.size)
            targets = centers[np.repeat(np.arange(ncells), alloc)]
            step = targets - pos[idle]
            d = np.hypot(step[:, 0], step[:, 1])
            scale = np.minimum(1.0, SLOT_KM / np.maximum(d, 1e-12))
            pos[idle] = pos[idle] + step * scale[:, None]
            travel += float(np.minimum(d, SLOT_KM).sum())
        # 3. insert the slot's requests, ``WINDOW`` at a time
        served += _insert(requests[slot == t], stops, n, pos)
    arrived = len(orders)
    return RoutePlanMetrics(
        served=served,
        arrived=arrived,
        travel_km=travel,
        unified_cost=travel + PENALTY_KM * (arrived - served),
    )
