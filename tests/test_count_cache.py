"""The city's count cache is the only place count tables are built.

Each test runs on a fresh ``CityData`` over the session's city events (so
no other test has filled its cache). The first three count the binnings
behind the demand tensor and the alpha table, by grid side, at every module
that imports the binning functions by name; the last counts Spark jobs
(none: filling the cache reads the generator's columns).
"""
import time

import pytest

from repro.core import upper_bound
from repro.core.grids import EventTable
from repro.experiments import error_curves, table3, table4
from repro.experiments.config import TESTS, CityData
from repro.experiments.error_curves import error_curves as run_error_curves
from repro.experiments.table3 import case_study_run, run_table3
from repro.experiments.table4 import run_table4


@pytest.fixture
def aggregations(monkeypatch):
    """``{"tensor": [side, ...], "alpha": [side, ...]}``, one entry per
    binning run over the city's event table."""
    sides = {"tensor": [], "alpha": []}

    def counted(kind, fn):
        def wrapper(events, spec, **kwargs):
            assert isinstance(events, EventTable)
            sides[kind].append(spec.n_side)
            return fn(events, spec, **kwargs)

        return wrapper

    for kind, name in (("tensor", "demand_tensor"), ("alpha", "alpha_by_hgrid")):
        wrapped = counted(kind, getattr(upper_bound, name))
        for module in (upper_bound, table3, table4, error_curves):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return sides


def _fresh(city: CityData) -> CityData:
    return CityData(cfg=city.cfg, events=city.events, settings=city.settings)


def test_table4_one_aggregation_per_side(xian, aggregations):
    run_table4(_fresh(xian), slots=[17, 37])
    swept = list(range(TESTS.s_min, TESTS.s_max + 1))
    assert sorted(aggregations["tensor"]) == swept
    assert sorted(aggregations["alpha"]) == swept


def test_table3_one_aggregation_per_side(nyc, aggregations):
    run_table3(_fresh(nyc))
    tensor_sides = aggregations["tensor"]
    assert len(tensor_sides) == len(set(tensor_sides))
    assert sorted(aggregations["alpha"]) == sorted(tensor_sides)


def test_oracle_run_builds_no_second_tensor(spark, nyc, aggregations):
    data = _fresh(nyc)
    case_study_run(spark, data, 8, oracle=True)
    assert aggregations["tensor"] == [8]
    case_study_run(spark, data, 8)
    assert aggregations["tensor"] == [8]


def _jobs_in_group(spark, group: str, fn) -> int:
    """Spark jobs ``fn()`` runs, counted through a job group. The status
    store is fed asynchronously, so poll until two readings agree."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker, last = sc.statusTracker(), None
    for _ in range(20):
        jobs = len(tracker.getJobIdsForGroup(group))
        if jobs == last:
            break
        last = jobs
        time.sleep(0.25)
    return last


def test_replay_runs_no_spark_job(spark, nyc):
    """Table III's case study plus an error-curve point on a fresh city run
    no Spark job, the first time or the second: the event table is the
    generator's own columns, not a collect."""
    assert _jobs_in_group(spark, "count-cache-probe", nyc.events.count) >= 1
    data = _fresh(nyc)

    def replay():
        case_study_run(spark, data, 8)
        run_error_curves(spark, data, n_sides=[4])

    assert _jobs_in_group(spark, "count-cache-first", replay) == 0
    assert _jobs_in_group(spark, "count-cache-second", replay) == 0
