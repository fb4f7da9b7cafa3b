"""Outside-in tracer for the benchmark.

Spans are recorded from outside the program: a traced callable is replaced,
*at the module or class where its callers look it up*, by a wrapper that
times it and bumps counters. ``repro.core.upper_bound`` imports
``total_expression_error_local`` by name, so patching the defining module
would miss that call site; every site is therefore listed explicitly in
:data:`SITES`.

A layer's self time is its span minus the spans of traced callables it
called. ``DataFrame.toPandas`` is not a layer of the span tree but an
overlay: its inclusive time and row count are summed into
``spark.collect.s`` / ``spark.rows_collected`` while the time stays in the
self time of the layer that collected (so ``dispatch.day_orders.s`` holds
the Spark work of pulling the test day).

Spans live in memory as running sums; nothing is written until the
benchmark prints its result.
"""
import functools
import importlib
import time
from collections import defaultdict


#: (module or class, attribute, layer, counter) — one entry per call site.
#: The counter, when given, maps (positional args, result) to (name, amount);
#: only plain functions carry one, so ``args[0]`` is never ``self``.
SITES = (
    ("repro.core.search", "brute_force", "search.brute_force",
     lambda a, out: ("search.bound_calls", len(out.evaluated))),
    ("repro.core.upper_bound.UpperBoundEvaluator", "evaluate", "upper_bound.evaluate", None),
    ("repro.core.upper_bound", "demand_tensor", "model_error.demand_tensor", None),
    ("repro.experiments.table3", "demand_tensor", "model_error.demand_tensor", None),
    ("repro.experiments.error_curves", "demand_tensor", "model_error.demand_tensor", None),
    ("repro.core.upper_bound", "total_model_error", "model_error.total_model_error", None),
    ("repro.experiments.error_curves", "total_model_error", "model_error.total_model_error", None),
    ("repro.core.upper_bound", "total_expression_error_local", "expression_error.local",
     lambda a, out: ("expression_error.local.hgrids", len(a[0]))),
    ("repro.experiments.error_curves", "total_expression_error", "expression_error.by_mgrid", None),
    ("repro.experiments.error_curves", "alpha_by_hgrid", "alpha.alpha_by_hgrid", None),
    ("repro.experiments.error_curves", "measured_real_error", "real_error.measured_real_error", None),
    ("repro.experiments.table3", "day_orders", "dispatch.day_orders",
     lambda a, out: ("dispatch.day_orders.rows", len(out))),
    ("repro.experiments.table3", "mean_fare_by_cell", "dispatch.mean_fare_by_cell", None),
    ("repro.experiments.table3", "polar_weights", "dispatch.weights", None),
    ("repro.experiments.table3", "ls_weights", "dispatch.weights", None),
    ("repro.experiments.table3", "simulate_day", "dispatch.simulate_day",
     lambda a, out: ("dispatch.simulate_day.orders", len(a[0]))),
    ("repro.experiments.table3", "run_daif_day", "routing.run_daif_day",
     lambda a, out: ("routing.run_daif_day.requests", len(a[0]))),
    ("repro.models.DeepSTLike", "fit", "models.fit", None),
    ("repro.models.DeepSTLike", "predict", "models.predict", None),
)


def _resolve(path: str):
    """Module or class named by a dotted path (``pkg.mod`` or ``pkg.mod.Class``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Running sums of span self/inclusive time and counters.

    ``install`` patches every site in :data:`SITES`, the kernel's Poisson
    window (to count point evaluations) and ``frame_cls.toPandas``;
    ``uninstall`` restores the originals. ``op()`` opens the root span of
    one timed operation.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _close(self, layer: str, t0: float) -> float:
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_s[layer] += dur - child
        self.total_s[layer] += dur
        self.counts[layer + ".calls"] += 1
        if self._stack:
            self._stack[-1] += dur
        return dur

    def op(self, fn):
        """Run ``fn`` as the root span ``bench.op``; return (result, wall)."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = self._close("bench.op", t0)
        return out, wall

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, orig, layer: str, counter):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(layer, t0)
            if counter is not None:
                name, amount = counter(args, out)
                tracer.counts[name] += amount
            return out

        return traced

    def install(self, frame_cls) -> None:
        for path, attr, layer, counter in SITES:
            owner = _resolve(path)
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), layer, counter))
        self._install_kernel_counter()
        self._install_collect_overlay(frame_cls)

    def _install_kernel_counter(self) -> None:
        ee = importlib.import_module("repro.core.expression_error")
        orig = ee._log_pois_window
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            lo, pmf = orig(*args, **kwargs)
            counts["expression_error.local.point_evals"] += pmf.size
            return lo, pmf

        self._patch(ee, "_log_pois_window", counted)

    def _install_collect_overlay(self, frame_cls) -> None:
        orig = frame_cls.toPandas
        tracer = self

        @functools.wraps(orig)
        def collected(df, *args, **kwargs):
            t0 = time.perf_counter()
            pdf = orig(df, *args, **kwargs)
            tracer.total_s["spark.collect"] += time.perf_counter() - t0
            tracer.counts["spark.rows_collected"] += len(pdf)
            return pdf

        self._patch(frame_cls, "toPandas", collected)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
