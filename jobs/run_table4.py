"""spark-submit entrypoint: Table IV (search-algorithm cost / probability /
optimal ratio per city) on the BENCH twins with the DeepST-like model.
Prints each city's whole-table wall seconds (count fill included) and exits
non-zero if a table does not have the paper's shape. At the committed
stride of 4 (12 slots per city) it writes ``results/table4_<city>.csv``;
any other ``--slots-stride`` (the paper's is 1) only prints.

    python jobs/run_table4.py [--cities nyc chengdu xian] [--slots-stride 4]
"""
import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _session import get_spark  # noqa: E402
from repro.experiments.config import BENCH, load_city  # noqa: E402
from repro.experiments.table4 import run_table4  # noqa: E402

COMMITTED_STRIDE = 4


def shape_failures(df) -> list[str]:
    by = df.set_index("algorithm")
    city = df["city"].iloc[0]
    failures = []
    if by.loc["Brute-force Search", "probability"] != 1.0:
        failures.append(f"{city}: brute force must find the optimum in every slot")
    brute_calls = by.loc["Brute-force Search", "bound_calls"]
    for algo in ("Ternary Search", "Iterative Method"):
        if not by.loc[algo, "bound_calls"] < brute_calls:
            failures.append(f"{city}: {algo} must make fewer bound calls than brute force")
    if by.loc["Iterative Method", "probability"] < by.loc["Ternary Search", "probability"]:
        failures.append(f"{city}: the Iterative Method must find the optimum at least as often as ternary search")
    return failures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--cities", nargs="+", default=["nyc", "chengdu", "xian"],
        choices=["nyc", "chengdu", "xian"],
    )
    ap.add_argument(
        "--slots-stride", type=int, default=COMMITTED_STRIDE,
        help="evaluate every k-th slot (48/k OGSS instances per city); "
        f"results/ is written only at {COMMITTED_STRIDE}",
    )
    args = ap.parse_args()
    if args.slots_stride < 1:
        ap.error(f"--slots-stride must be at least 1, got {args.slots_stride}")
    slots = list(range(0, BENCH.slots, args.slots_stride))
    spark = get_spark("table4")
    failures = []
    for city in args.cities:
        data = load_city(spark, city, BENCH)
        t0 = time.perf_counter()
        df = run_table4(data, slots=slots)
        wall = time.perf_counter() - t0
        if args.slots_stride == COMMITTED_STRIDE:
            df.to_csv(ROOT / "results" / f"table4_{city}.csv", index=False)
        print(f"\n=== Table IV ({city}, {len(slots)} slots): {wall:.1f} s, count fill included ===")
        print(df.to_string(index=False))
        failures += shape_failures(df)
    spark.stop()
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
