"""Smoke tests for the DuckDB oracle harness itself, over the taxi twin."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.oracle import assert_equivalent

PER_SLOT = "SELECT slot, count(*) AS cnt FROM trips GROUP BY slot"


@pytest.fixture(scope="module")
def trips(spark):
    """A few days of the Xi'an twin (~1.6k trips)."""
    return sd.taxi_trips(spark, sd.XIAN, sf=0.005, days=3)


def test_oracle_accepts_matching_aggregation(trips):
    got = trips.groupBy("slot").agg(
        F.count(F.lit(1)).alias("cnt"), F.sum("revenue").alias("rev")
    )
    assert_equivalent(
        got,
        "SELECT slot, count(*) AS cnt, sum(revenue) AS rev FROM trips GROUP BY slot",
        trips=trips,
    )


def test_oracle_accepts_join(spark, trips):
    periods = spark.createDataFrame(
        pd.DataFrame({"slot": range(sd.SLOTS_PER_DAY),
                      "period": ["night"] * 14 + ["day"] * 26 + ["night"] * 8})
    )
    got = (
        trips.join(periods, "slot")
        .groupBy("day", "period")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )
    assert_equivalent(
        got,
        "SELECT day, period, count(*) AS cnt FROM trips "
        "JOIN periods USING (slot) GROUP BY day, period",
        trips=trips,
        periods=periods,
    )


def test_oracle_rejects_wrong_result(trips):
    wrong = trips.groupBy("slot").agg((F.count(F.lit(1)) + 1).alias("cnt"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, PER_SLOT, trips=trips)


def test_oracle_rejects_column_mismatch(trips):
    got = trips.groupBy("slot").agg(F.count(F.lit(1)).alias("oops"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, PER_SLOT, trips=trips)


def test_oracle_accepts_pandas_tables(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    got = spark.createDataFrame(pdf).groupBy("k").agg(F.sum("v").alias("s"))
    assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)
