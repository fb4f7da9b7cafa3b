"""Table IV — performance of the optimisation searching algorithms.

Per city, each of the 48 time slots is an independent OGSS instance (the
optimal n differs per slot because expression error does, §V-E). Every
algorithm — Ternary Search, Iterative Method, Brute-force — searches every
slot over one bound evaluator, so a (n, slot) point two searches probe is
evaluated once, over the city's count cache (filled for every swept side
before the searches). We report:

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
evaluated every swept side of every slot, so the OR phase reads the
evaluator's memo and trains no model of its own.
"""
from functools import cache
from math import fsum

import numpy as np
import pandas as pd

from repro.core.upper_bound import UpperBoundEvaluator
from repro.dispatch.simulator import allocate, day_orders, matched, polar_weights
from repro.experiments.config import SEARCHES, CityData
from repro.models import DeepSTLike


def run_table4(data: CityData, *, slots: list[int] | None = None) -> pd.DataFrame:
    """Table IV rows for one city (cost, probability, OR per algorithm);
    ``ValueError`` for an empty slot list, a slot outside ``[0, slots)`` or
    a repeated slot, before any count is filled."""
    st = data.settings
    slots = list(range(st.slots)) if slots is None else slots
    if not slots:
        raise ValueError("Table IV needs at least one slot")
    if len(set(slots)) < len(slots) or not set(slots) <= set(range(st.slots)):
        raise ValueError(f"Table IV needs distinct slots in [0, {st.slots}), got {slots}")

    # brute force reads every side's counts anyway: build them once, untimed,
    # so each search's cost is its bound evaluations over a shared cache
    for s in range(st.s_min, st.s_max + 1):
        data.counts.tensor(s)
        data.counts.alphas(s)
    evaluator = UpperBoundEvaluator.for_city(data, DeepSTLike)
    results = {
        name: {t: search(evaluator.bound_fn(t), st) for t in slots}
        for name, search in SEARCHES.items()
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
        forecast by the evaluator's memoised model."""
        model = evaluator.evaluate(s, slot).model
        pred = model.predict(data.counts.tensor(s), st.test_day, slot)
        alloc = allocate(polar_weights(pred, data.counts.spec(s), P), n_drivers)
        return int(matched(alloc, cells_by_slot.get(slot, np.empty(0, dtype=int))).sum())

    optimal = {t: r.s_opt for t, r in results["Brute-force Search"].items()}
    rows = []
    for name, found in results.items():
        o_a = sum(served(found[t].s_opt, t) for t in slots)
        o_r = sum(served(optimal[t], t) for t in slots)
        # fsum rounds the exact sum: a subset of brute force's points never costs more
        cost = fsum(evaluator.evaluate(s, t).eval_s for t in slots for s in found[t].evaluated)
        rows.append(
            {
                "city": data.cfg.name,
                "algorithm": name,
                "cost_s": cost,
                "bound_calls": sum(found[t].calls for t in slots),
                "probability": sum(found[t].s_opt == optimal[t] for t in slots) / len(slots),
                "OR": (o_a / o_r) if o_r else 1.0,
            }
        )
    return pd.DataFrame(rows)
