"""The one Spark session rule, shared by jobs and tests.

The spark-submit entrypoints in ``jobs/`` call :func:`get_spark`, and so
does the ``spark`` fixture of the root ``conftest.py`` that ``tests/``
uses: every caller gets the same master, driver heap and SQL confs.
(``perfbench/run.py`` keeps its own copy of these settings.)
"""
import os

from pyspark.sql import SparkSession


def driver_mem() -> str:
    """``SPARK_DRIVER_MEM``, else half of MemTotal clamped to [2, 8] GiB."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def get_spark(app: str) -> SparkSession:
    """The process's SparkSession, launched on the first call.

    Master and driver heap are read by the JVM only when it starts, so they
    go in ``PYSPARK_SUBMIT_ARGS`` (an explicit value in the environment
    wins). Broadcast joins are off so every caller runs the same shuffle
    plans. The UI and its console progress bars are off, so the tables the
    jobs print are not interleaved with ``[Stage N:>`` lines.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_mem()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
