"""Shared fixtures for the GridTuner reproduction tests.

Heavy inputs (city event frames, error curves) are session-scoped so the
suite builds each expensive artefact exactly once.
"""
import pytest

from repro.experiments.config import TESTS, load_city


@pytest.fixture(scope="session")
def nyc(spark):
    """NYC twin at unit-test scale (SF=0.01)."""
    return load_city(spark, "nyc", TESTS)


@pytest.fixture(scope="session")
def chengdu(spark):
    return load_city(spark, "chengdu", TESTS)


@pytest.fixture(scope="session")
def xian(spark):
    return load_city(spark, "xian", TESTS)


@pytest.fixture(scope="session")
def nyc_pdf(nyc):
    """The NYC events as pandas (for DuckDB oracle comparisons)."""
    return nyc.events.toPandas()
