"""The Spark session rule shared by tests and jobs."""
from jobs._session import driver_mem


def test_driver_mem_env_wins(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_mem() == "3g"


def test_driver_mem_default_is_clamped(monkeypatch):
    """Half of MemTotal, never outside [2, 8] GiB whatever the host reports."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    assert driver_mem() in {f"{g}g" for g in range(2, 9)}


def test_session_uses_the_rule(spark):
    assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    assert spark.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    assert spark.sparkContext.getConf().get("spark.ui.showConsoleProgress") == "false"
