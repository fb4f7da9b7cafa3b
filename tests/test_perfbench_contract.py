"""The benchmark's contract with the program.

``perfbench/`` drives public names of ``repro`` and its tracer patches
callables where their callers look them up. A refactor that renames or
re-signs one of them breaks every benchmark run, or ``--trace 1``, without
failing any other test; these tests catch that. They import the benchmark
modules but run nothing of it.
"""
import dataclasses
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``(workloads, tracer)`` imported as ``perfbench/run.py`` imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        # workloads imports checks, and both import the repro names they use
        yield importlib.import_module("workloads"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_declared_workloads_exist(bench):
    workloads, _ = bench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"] for w in declared} == set(workloads.WORKLOADS)


def test_tracer_sites_resolve(bench):
    _, tracer = bench
    missing = [
        f"{path}.{attr} ({layer})"
        for path, attr, layer, _ in tracer.SITES
        if not callable(getattr(tracer._resolve(path), attr, None))
    ]
    assert missing == []
    # the kernel's point-evaluation counter wraps the Poisson window
    assert callable(importlib.import_module("repro.core.expression_error")._log_pois_window)


def test_called_signatures_bind(bench):
    """The calls the benchmark makes still bind to the program's signatures."""
    from repro.core.expression_error import (
        expression_error_direct,
        total_expression_error_local,
    )
    from repro.core.model_error import demand_counts
    from repro.experiments.error_curves import error_curves
    from repro.experiments.table3 import case_study_run

    x = object()
    inspect.signature(error_curves).bind(x, x, n_sides=[16], slot=17)
    inspect.signature(case_study_run).bind(x, x, 18)
    inspect.signature(total_expression_error_local).bind(x, x, 4)
    inspect.signature(total_expression_error_local).bind(x, x, 4, None)
    inspect.signature(expression_error_direct).bind(1.0, 2.0, 4, 10)
    inspect.signature(demand_counts).bind(x, x)


def test_evaluator_replace_shares_count_caches(bench):
    """``ogss-warm`` copies a filled evaluator with a fresh bound memo; the
    copy must share the count caches, so its ops issue no Spark job."""
    from repro.core.upper_bound import UpperBoundEvaluator

    ev = UpperBoundEvaluator(
        None, None, None, 16, None, days=1, slots=1, train_days=[0], val_days=[0]
    )
    copy = dataclasses.replace(ev, _bounds={}, calls=0, elapsed=0.0)
    assert copy._counts is ev._counts
