"""spark-submit entrypoint: Table III (promotion of prediction-based
algorithms by tuning the grid size) on the BENCH NYC twin with the
DeepST-like model. Writes ``results/table3_nyc.csv`` and exits non-zero if
the table does not have the paper's shape.

    python jobs/run_table3.py
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _session import get_spark  # noqa: E402
from repro.experiments.config import BENCH, load_city  # noqa: E402
from repro.experiments.table3 import run_table3  # noqa: E402


def shape_failures(df) -> list[str]:
    failures = [] if len(df) == 6 else [f"Table III has {len(df)} rows, not 6"]
    polar = df[df["algorithm"] == "POLAR"]
    if not (polar["improve_ratio"] > 0).all():
        failures.append("POLAR must gain from tuning")
    return failures


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    spark = get_spark("table3")
    df = run_table3(load_city(spark, "nyc", BENCH))
    spark.stop()
    df.to_csv(ROOT / "results" / "table3_nyc.csv", index=False)
    print(df.to_string(index=False))
    if failures := shape_failures(df):
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
