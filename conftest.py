"""Root pytest configuration: the one SparkSession of a ``tests/`` run,
built by the session rule the jobs use (``jobs/_session.py``)."""
import sys

import pytest
from pyspark.sql import SparkSession

from jobs._session import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session."""
    s = get_spark("repro")
    sc = s.sparkContext
    # one line in the test output recording the session's sizing
    print(
        f"[conftest] driver memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
