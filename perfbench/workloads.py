"""The benchmark's workloads.

Each workload has a set-up (untimed by the op clock, counted in
``setup_s``), a fixed list of distinct ops making one pass, a per-op output
check and run-level checks. Every run visits the same ops in the same order
in whole passes, because op cost depends on content (slot, side).

All workloads run on the BENCH-scale NYC twin (SF 0.1, N = 32^2, 33 days)
with the DeepST substitute, driving only public functions of ``repro``.
"""
import dataclasses

import numpy as np
import pandas as pd

import checks
from repro.core import search
from repro.core.grids import grid_spec
from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments.error_curves import error_curves
from repro.experiments.table3 import case_study_run
from repro.models import MODELS


class Workload:
    """Base: subclasses define ``setup``, ``ops``, ``check_op``, ``check_run``."""

    name = ""
    #: expected seconds of one measured pass; sets the pass count for a run
    nominal_pass_s = 1.0

    def __init__(self, ctx):
        self.ctx = ctx
        self.st = ctx.data.settings

    def setup(self) -> None:
        """Workload-specific set-up after the city data is cached."""

    def ops(self) -> list[tuple[str, callable]]:
        raise NotImplementedError

    def check_op(self, key: str, out, reference) -> list[str]:
        """Check one op's output; ``reference`` is that op's warm-up output."""
        return [] if _same(out, reference) else [f"{key}: output differs from its warm-up run"]

    def check_run(self, outputs: dict) -> list[str]:
        """Run-level checks over the last output of every op."""
        return []

    def passes(self, seconds: float) -> int:
        """Whole measured passes for a run of ``seconds`` (at least two, so
        every op has a fastest repeat)."""
        return max(2, round(seconds / self.nominal_pass_s))

    def _evaluator(self) -> UpperBoundEvaluator:
        st, data = self.st, self.ctx.data
        return UpperBoundEvaluator(
            self.ctx.spark, data.events, data.cfg, st.N_side, MODELS["deepst"],
            days=st.days, slots=st.slots, train_days=st.train_days,
            val_days=st.val_days, K=st.K,
        )

    def _oracle_and_kernel(self, sides, slot: int) -> list[str]:
        """DuckDB oracle on ``demand_counts`` and local kernel vs Eq. 7 on
        sampled MGrids, at a side drawn by the seed from ``sides`` (one a
        run keeps the checks' Spark work small; seeds vary the sample)."""
        ctx = self.ctx
        rng = np.random.default_rng(ctx.seed)
        spec = grid_spec(ctx.data.cfg, int(rng.choice(sides)), self.st.N_side)
        failures = checks.oracle_demand_counts(ctx.data.events, ctx.events_pdf(), spec)
        alphas, mg = checks.numpy_alphas(
            ctx.events_pdf(), spec, slot=slot, train_days=self.st.train_days
        )
        mgrids = checks.sample_mgrids(alphas, mg, rng)
        return failures + checks.kernel_vs_direct(alphas, mg, spec.m, mgrids)


def _same(a, b) -> bool:
    if isinstance(a, pd.DataFrame):
        return a.equals(b)
    return a == b


class OgssWarm(Workload):
    """Brute-force OGSS over cached counts: Table IV's amortised regime."""

    name = "ogss-warm"
    SIDES = tuple(range(16, 19))  # contains Table III's tuned side 18
    FILL_SLOT = 17
    SLOTS = (7, 12, 17, 22, 27, 32, 37, 42)
    nominal_pass_s = 1.1

    def setup(self) -> None:
        """Fill one evaluator's per-side count caches: 2 Spark aggregations
        per side, through cold bound evaluations at the default slot."""
        self.filled = self._evaluator()
        for side in self.SIDES:
            self.filled.evaluate(side, self.FILL_SLOT)

    def _search(self, slot: int):
        # a fresh bound memo over the shared count caches, so no op hits a
        # bound computed by an earlier op or repeat
        ev = dataclasses.replace(self.filled, _bounds={}, calls=0, elapsed=0.0)
        return search.brute_force(ev.bound_fn(slot), self.SIDES[0], self.SIDES[-1])

    def ops(self):
        return [(f"slot{t}", lambda t=t: self._search(t)) for t in self.SLOTS]

    def check_op(self, key, out, reference):
        failures = super().check_op(key, out, reference)
        if sorted(out.evaluated) != list(self.SIDES):
            failures.append(f"{key}: evaluated sides {sorted(out.evaluated)}")
        elif out.evaluated[out.s_opt] != min(out.evaluated.values()):
            failures.append(f"{key}: brute force returned {out.s_opt}, not the argmin")
        if self.ctx.seed == checks.REFERENCE_SEED and key == f"slot{self.FILL_SLOT}":
            failures += self._check_reference(key, out)
        return failures

    def _check_reference(self, key, out) -> list[str]:
        failures = []
        if out.s_opt != 18:
            failures.append(f"{key}: picked side {out.s_opt}, Table III's tuned side is 18")
        for side in self.SIDES:
            try:
                row = checks.committed_curve(self.ctx.root, side)
            except StopIteration:
                continue
            if not checks.close(out.evaluated[side], float(row["bound"])):
                failures.append(
                    f"{key}: bound at side {side} {out.evaluated[side]!r} != committed {row['bound']}"
                )
        return failures

    def check_run(self, outputs):
        failures = []
        lo, hi = self.SIDES[0], self.SIDES[-1]
        for key, res in outputs.items():
            # Iterative Method (Alg. 5) over the measured bounds: its pick must
            # be no worse than any neighbour within the search boundary b
            it = search.iterative_method(
                res.evaluated.__getitem__, lo, hi, p=self.st.s_default, b=3
            )
            e = res.evaluated
            worse = [s for i in (1, 2, 3) for s in (it.s_opt - i, it.s_opt + i)
                     if lo <= s <= hi and e[s] < e[it.s_opt]]
            if worse:
                failures.append(f"{key}: iterative pick {it.s_opt} beaten by sides {worse}")
        # the evaluator's Spark alphas + local kernel equal the numpy twin
        side = self.SIDES[self.ctx.seed % len(self.SIDES)]
        spec = grid_spec(self.ctx.data.cfg, side, self.st.N_side)
        want = checks.numpy_expr_error(
            self.ctx.events_pdf(), spec, slot=self.FILL_SLOT,
            train_days=self.st.train_days, K=self.st.K,
        )
        got = self.filled.evaluate(side, self.FILL_SLOT).expr_error
        if got != want:
            failures.append(f"alpha: expr error at side {side} {got!r} != numpy twin {want!r}")
        return failures + self._oracle_and_kernel(self.SIDES, self.FILL_SLOT)


class Replay(Workload):
    """Table III's case-study replay and one Fig. 3 error-curve point."""

    name = "replay"
    CASE_SIDE = 18
    CURVE_SIDE = 16
    CURVE_SLOT = 17
    nominal_pass_s = 11.0

    def ops(self):
        ctx = self.ctx
        return [
            (f"case{self.CASE_SIDE}",
             lambda: case_study_run(ctx.spark, ctx.data, self.CASE_SIDE)),
            (f"curve{self.CURVE_SIDE}",
             lambda: error_curves(ctx.spark, ctx.data, n_sides=[self.CURVE_SIDE],
                                  slot=self.CURVE_SLOT)),
        ]

    def check_op(self, key, out, reference):
        failures = super().check_op(key, out, reference)
        reference_seed = self.ctx.seed == checks.REFERENCE_SEED
        if key.startswith("case"):
            for name, m in (("POLAR", out.polar), ("LS", out.ls)):
                if not 0 < m.served <= m.arrived or m.revenue <= 0:
                    failures.append(f"{key}: {name} served {m.served} of {m.arrived}")
            if reference_seed:
                failures += self._check_table3(key, out)
        else:
            row = out.iloc[0]
            if not checks.close(row["bound"], row["model_error"] + row["expr_error"]):
                failures.append(f"{key}: bound is not model + expression error")
            if reference_seed:
                want = checks.committed_curve(self.ctx.root, self.CURVE_SIDE)
                for col, v in want.items():
                    ok = (int(row[col]) == int(v)) if col in ("n_side", "n", "m") \
                        else checks.close(float(row[col]), float(v))
                    if not ok:
                        failures.append(f"{key}: {col} {row[col]!r} != committed {v}")
        return failures

    def _check_table3(self, key, run) -> list[str]:
        failures = []
        tag = f"{self.CASE_SIDE}x{self.CASE_SIDE}"
        for row in checks.committed_table3(self.ctx.root):
            if row["optimal_n"] != tag:
                continue
            algo, metric = row["algorithm"], row["metric"]
            served = metric.startswith("Served")
            if algo == "DAIF":
                got = run.daif_served if served else run.daif_cost
            else:
                m = run.polar if algo == "POLAR" else run.ls
                got = m.served if served else m.revenue
            want = float(row["value_optimal"])
            ok = got == int(want) if served else checks.close(got, want)
            if not ok:
                failures.append(f"{key}: {algo} {metric} {got!r} != committed {want!r}")
        return failures

    def check_run(self, outputs):
        # the applyInPandas expression error equals the local kernel on
        # numpy-binned alphas (the two kernel paths agree)
        spec = grid_spec(self.ctx.data.cfg, self.CURVE_SIDE, self.st.N_side)
        want = checks.numpy_expr_error(
            self.ctx.events_pdf(), spec, slot=self.CURVE_SLOT,
            train_days=self.st.train_days, K=self.st.K,
        )
        got = float(outputs[f"curve{self.CURVE_SIDE}"].iloc[0]["expr_error"])
        failures = [] if checks.close(got, want) else [
            f"kernel paths: applyInPandas {got!r} != local {want!r}"
        ]
        # sides of the committed sweep with m <= 16, where the Eq. 7 direct
        # sum stays small
        return failures + self._oracle_and_kernel((8, 10, 12, 14, 16, 19), self.CURVE_SLOT)


WORKLOADS = {w.name: w for w in (OgssWarm, Replay)}
