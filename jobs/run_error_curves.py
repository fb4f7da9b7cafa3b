"""spark-submit entrypoint: error-vs-n curves (paper Figures 3-5 as data).

Sweeps every side ``s_min..s_max`` of the BENCH twins at the default slot
for the five committed (city, model) pairs, loading each city once, writes
``results/curves_<city>_<model>.csv`` and exits non-zero if a curve does
not have the §V-C shape. ``--city`` and
``--model`` select a subset of the pairs.

    python jobs/run_error_curves.py [--city nyc] [--model deepst]
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _session import get_spark  # noqa: E402
from repro.experiments.config import BENCH, load_city  # noqa: E402
from repro.experiments.error_curves import error_curves  # noqa: E402

PAIRS = (
    ("nyc", "deepst"), ("nyc", "mlp"), ("nyc", "dmvst"),
    ("chengdu", "deepst"), ("xian", "deepst"),
)


#: Thm II.1 check: the measured real error may exceed the bound by this factor
BOUND_SLACK = 1.10


def worst_ratio(df) -> float:
    """The largest real error / bound over a curve's sides."""
    return float((df["real_error"] / df["bound"]).max())


def shape_failures(df, name: str) -> list[str]:
    failures = []
    if not df["expr_error"].iloc[-1] < df["expr_error"].iloc[0]:
        failures.append(f"{name}: expression error must fall from the first side to the last")
    if not df["model_error"].iloc[-1] > df["model_error"].iloc[0]:
        failures.append(f"{name}: model error must rise from the first side to the last")
    over = df.loc[df["real_error"] > df["bound"] * BOUND_SLACK, "n_side"].tolist()
    if over:
        failures.append(f"{name}: real error exceeds {BOUND_SLACK} x bound at sides {over}")
    return failures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--city", choices=["nyc", "chengdu", "xian"])
    ap.add_argument("--model", choices=["mlp", "deepst", "dmvst"])
    args = ap.parse_args()
    pairs = [(c, m) for c, m in PAIRS if args.city in (None, c) and args.model in (None, m)]
    if not pairs:
        ap.error(f"no committed curve for {args.city} / {args.model}")
    n_sides = list(range(BENCH.s_min, BENCH.s_max + 1))
    spark = get_spark("error-curves")
    failures = []
    for city in dict.fromkeys(c for c, _ in pairs):
        data = load_city(spark, city, BENCH)
        for model in (m for c, m in pairs if c == city):
            df = error_curves(spark, data, model_name=model, n_sides=n_sides)
            df.to_csv(ROOT / "results" / f"curves_{city}_{model}.csv", index=False)
            s_opt = int(df.loc[df["bound"].idxmin(), "n_side"])
            print(f"\n=== error curves ({city}, {model}): bound minimum at {s_opt}x{s_opt} ===")
            print(df.to_string(index=False))
            print(f"worst real error / bound: {worst_ratio(df):.3f} (Thm II.1 check allows {BOUND_SLACK})")
            failures += shape_failures(df, f"{city}/{model}")
    spark.stop()
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
