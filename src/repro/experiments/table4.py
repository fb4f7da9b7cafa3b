"""Table IV — performance of the optimisation searching algorithms.

Per city, each of the 48 time slots is an independent OGSS instance (the
optimal n differs per slot because expression error does, §V-E). For every
algorithm — Ternary Search, Iterative Method, Brute-force — we run the
search on every slot with a *fresh* bound evaluator over the city's count
cache (filled for every swept side before the searches) and report:

* **cost** — total wall-clock seconds of the algorithm's bound evaluations
  (model fit, model error and expression-error kernel per (n, slot));
* **probability** — fraction of slots where the found n equals the
  brute-force optimum;
* **OR (optimal ratio)** — POLAR's served orders on the test day when
  positioned with the found-n forecasts, divided by served orders with the
  optimal-n forecasts (summed over the evaluated slots), mirroring the
  paper's o_a / o_r definition.

Every bound and forecast comes from the DeepST substitute. A forecast at
(n, slot) is made by the model that produced the bound there: brute force
evaluated every swept side of every slot, so the OR phase reads its
evaluator's memo and trains no model of its own.
"""
import time
from functools import cache

import numpy as np
import pandas as pd

from repro.core.search import brute_force, iterative_method, ternary_search
from repro.core.upper_bound import UpperBoundEvaluator
from repro.dispatch.simulator import allocate, day_orders, matched, polar_weights
from repro.experiments.config import ITERATIVE_B, CityData
from repro.models import DeepSTLike


def run_table4(data: CityData, *, slots: list[int] | None = None) -> pd.DataFrame:
    """Table IV rows for one city (cost, probability, OR per algorithm);
    ``ValueError`` for an empty slot list, before any count is filled."""
    st = data.settings
    slots = list(range(st.slots)) if slots is None else slots
    if not slots:
        raise ValueError("Table IV needs at least one slot")

    algos = {
        "Ternary Search": lambda fn: ternary_search(fn, st.s_min, st.s_max),
        "Iterative Method": lambda fn: iterative_method(
            fn, st.s_min, st.s_max, p=st.s_default, b=ITERATIVE_B
        ),
        "Brute-force Search": lambda fn: brute_force(fn, st.s_min, st.s_max),
    }
    # brute force reads every side's counts anyway: build them once, untimed,
    # so each search's cost is its bound evaluations over a shared cache
    for s in range(st.s_min, st.s_max + 1):
        data.counts.tensor(s)
        data.counts.alphas(s)
    found: dict[str, dict[int, int]] = {}
    stats: dict[str, dict] = {}
    evaluators = {}
    for name, algo in algos.items():
        evaluator = evaluators[name] = UpperBoundEvaluator.for_city(data, DeepSTLike)
        t0 = time.perf_counter()
        per_slot = {}
        for slot in slots:
            per_slot[slot] = algo(evaluator.bound_fn(slot)).s_opt
        found[name] = per_slot
        stats[name] = {
            "cost_s": time.perf_counter() - t0,
            "bound_calls": evaluator.calls,
        }

    # the o_a / o_r measurement, not charged to any search's cost: POLAR
    # positions on the HGrid lattice with a slot's share of 70% of the day's
    # orders as drivers
    P = st.N_side
    n_drivers = max(20, int(0.7 * int(data.cfg.daily_orders * st.sf) / st.slots))
    orders = day_orders(data.counts.table, data.cfg, day=st.test_day, P=P)
    cells_by_slot = {int(t): g["cell"].to_numpy(int) for t, g in orders.groupby("slot")}

    @cache
    def served(s: int, slot: int) -> int:
        """Served orders of a single-slot POLAR matching at grid side s,
        forecast by the brute-force evaluator's memoised model."""
        model = evaluators["Brute-force Search"].evaluate(s, slot).model
        pred = model.predict(data.counts.tensor(s), st.test_day, slot)
        alloc = allocate(polar_weights(pred, data.counts.spec(s), P), n_drivers)
        return int(matched(alloc, cells_by_slot.get(slot, np.empty(0, dtype=int))).sum())

    optimal = found["Brute-force Search"]
    rows = []
    for name in algos:
        hits = sum(found[name][t] == optimal[t] for t in slots)
        o_a = sum(served(found[name][t], t) for t in slots)
        o_r = sum(served(optimal[t], t) for t in slots)
        rows.append(
            {
                "city": data.cfg.name,
                "algorithm": name,
                "cost_s": stats[name]["cost_s"],
                "bound_calls": stats[name]["bound_calls"],
                "probability": hits / len(slots),
                "OR": (o_a / o_r) if o_r else 1.0,
            }
        )
    return pd.DataFrame(rows)
