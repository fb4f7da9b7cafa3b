"""spark-submit entrypoint: run GridTuner's OGSS search on one city/slot.

    python jobs/run_search.py [--city nyc] [--algo iterative] [--slot 17]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _session import get_spark  # noqa: E402
from repro.core.upper_bound import UpperBoundEvaluator  # noqa: E402
from repro.experiments.config import BENCH, SEARCHES, TESTS, load_city  # noqa: E402
from repro.models import MODELS  # noqa: E402

ALGOS = {"ternary": "Ternary Search", "iterative": "Iterative Method", "brute": "Brute-force Search"}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--city", default="nyc", choices=["nyc", "chengdu", "xian"])
    ap.add_argument("--model", default="deepst", choices=["mlp", "deepst", "dmvst"])
    ap.add_argument("--algo", default="iterative", choices=list(ALGOS))
    ap.add_argument("--scale", default="bench", choices=["bench", "tests"])
    ap.add_argument("--slot", type=int, default=None)
    args = ap.parse_args()
    st = BENCH if args.scale == "bench" else TESTS
    slot = st.default_slot if args.slot is None else args.slot
    if not 0 <= slot < st.slots:
        ap.error(f"--slot must be in [0, {st.slots}), got {slot}")
    spark = get_spark("ogss-search")
    data = load_city(spark, args.city, st)
    evaluator = UpperBoundEvaluator.for_city(data, MODELS[args.model])
    res = SEARCHES[ALGOS[args.algo]](evaluator.bound_fn(slot), st)
    print(f"city={args.city} slot={slot} algo={args.algo}")
    for s in sorted(res.evaluated):
        print(f"  e({s:2d}) = {res.evaluated[s]:.3f}")
    print(
        f"optimal n = {res.s_opt}x{res.s_opt} ({res.calls} bound evaluations, "
        f"{evaluator.elapsed:.1f}s inside Algorithm 3)"
    )
    spark.stop()


if __name__ == "__main__":
    main()
