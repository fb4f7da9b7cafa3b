"""DAIF-style demand-aware route planning (substitute for Wang et al.,
VLDB'20 — see DESIGN.md §4).

A fleet of shared vehicles (capacity ``CAP`` concurrent requests) serves
ride requests by greedy minimum-detour insertion; *demand-awareness* enters
exactly where the paper's does: idle vehicles are repositioned toward the
cells the per-MGrid forecast (spread uniformly, as always) marks as hot.
Metrics match Table III: number of served requests and the unified cost
(total travel distance + ``PENALTY_KM`` per unserved request).

World model per 30-minute slot:

1. vehicles advance along their stop queues at ``SPEED_KMH``;
2. idle vehicles move (speed-limited) toward forecast-hot cells — the same
   largest-remainder allocation as the dispatch simulator;
3. each new request is appended (origin then destination) to the feasible
   vehicle with the smallest detour, where feasible means the vehicle
   carries < ``CAP`` open requests and its route tail is within
   ``MAX_PICKUP_KM`` (plus a backlog allowance); infeasible requests are
   rejected. The candidate scan is vectorised over the fleet.
"""
import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.dispatch.simulator import allocate

SPEED_KMH = 30.0
SLOT_HOURS = 0.5  # 30-minute slots
#: unified-cost charge for each rejected request, in km of travel
PENALTY_KM = 15.0
#: concurrent open requests per vehicle
CAP = 2
#: pickup radius around a vehicle's route tail, before the backlog allowance
MAX_PICKUP_KM = 2.5
#: seed of the initial vehicle placement
SEED = 0


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
    budget = SPEED_KMH * SLOT_HOURS  # km of travel per vehicle per slot
    queues: list[list[tuple[np.ndarray, bool]]] = [[] for _ in range(n_vehicles)]
    open_reqs = np.zeros(n_vehicles, dtype=int)
    tails = pos.copy()  # end of each vehicle's planned route
    centers = _cell_centers(P, width_km, height_km)
    served = 0
    travel = 0.0
    by_slot = dict(iter(orders.groupby("slot")))
    for t in range(slots):
        # 1. advance vehicles along their queues
        for v in range(n_vehicles):
            if not queues[v]:
                continue
            left = budget
            while queues[v] and left > 0:
                stop, is_drop = queues[v][0]
                d = float(np.hypot(*(stop - pos[v])))
                if d <= left:
                    pos[v] = stop
                    travel += d
                    left -= d
                    queues[v].pop(0)
                    if is_drop:
                        open_reqs[v] -= 1
                else:
                    pos[v] = pos[v] + (stop - pos[v]) * (left / max(d, 1e-12))
                    travel += left
                    left = 0.0
            if not queues[v]:
                tails[v] = pos[v]
        # 2. move idle vehicles toward forecast-hot cells (speed-limited)
        # every queued pickup has its drop queued: no open request, no queue
        idle = np.flatnonzero(open_reqs == 0)
        if idle.size:
            alloc = allocate(weights_by_slot[t], idle.size)
            targets = centers[np.repeat(np.arange(ncells), alloc)]
            step = targets - pos[idle]
            d = np.hypot(step[:, 0], step[:, 1])
            scale = np.minimum(1.0, budget / np.maximum(d, 1e-12))
            pos[idle] = pos[idle] + step * scale[:, None]
            travel += float(np.minimum(d, budget).sum())
            tails[idle] = pos[idle]
        # 3. vectorised greedy min-detour insertion
        g = by_slot.get(t)
        if g is None:
            continue
        qlen = np.array([len(q) for q in queues])
        for r in g.itertuples(index=False):
            ox, oy = float(r.x), float(r.y)
            pick = np.hypot(tails[:, 0] - ox, tails[:, 1] - oy)
            feas = (open_reqs < CAP) & (pick <= MAX_PICKUP_KM + budget * (qlen // 2))
            if not feas.any():
                continue
            cand = np.flatnonzero(feas)
            v = int(cand[np.argmin(pick[cand])])
            o = np.array([ox, oy])
            dpt = np.array([float(r.dest_x), float(r.dest_y)])
            queues[v].append((o, False))
            queues[v].append((dpt, True))
            open_reqs[v] += 1
            qlen[v] += 2
            tails[v] = dpt
            served += 1
    arrived = len(orders)
    return RoutePlanMetrics(
        served=served,
        arrived=arrived,
        travel_km=travel,
        unified_cost=travel + PENALTY_KM * (arrived - served),
    )
