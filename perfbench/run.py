"""End-to-end benchmark of the GridTuner reproduction.

    python3 perfbench/run.py --workload ogss-warm --seed 11 --seconds 12 --trace 0

One closed-loop caller runs one op at a time on a local[2] Spark session:
set-up (JVM launch, the BENCH-scale NYC twin generated from ``--seed``,
cache, the workload's own set-up, one untimed warm-up pass over every op),
then whole measured passes over the workload's fixed op list, then output
checks outside the timed region. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` — process start to the first timed op;
* ``op_p50_s`` — median over the distinct ops of each op's fastest repeat;
* ``py_peak_rss_mb`` — VmHWM of the driver Python process at the end of
  the measured passes. (The JVM's VmHWM moves by more than a tenth from run
  to run with GC timing, so it is the per-layer ``jvm_peak_rss_mb``.)

``--trace 1`` follows each measured pass with a traced pass (see
``tracer.py``) and reports the per-layer split as means per traced
op: layer self times (``<layer>.s`` / ``<layer>.self_s``), call and work
counts, Spark jobs/tasks (counted through one job group per op) and rows
collected, plus the set-up phases. ``bench.tracer_overhead_s`` is the mean
over ops of (fastest traced - fastest untraced) wall time;
``bench.op_self_s`` is op time no traced layer claims;
``host.cpu_probe_s`` times a fixed pure-Python loop after the measured
passes, to tell a slow host from a slow program.

Run-length: ``--seconds`` sets the number of whole passes (at least two);
the same arguments always give the same multiset of ops.
"""
import time

T_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import SITES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"  # Spark local dirs and temp files
MASTER = "local[2]"

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("py_peak_rss_mb", "MB"),
)

#: (metric, unit) of the traced run, in report order
PER_LAYER = (
    ("spark.launch.s", "s"),
    ("synth_data.taxi_trips.s", "s"),
    ("spark.create_cache.s", "s"),
    ("setup.cache_fill.s", "s"),
    ("setup.cache_fill.spark_jobs", "count"),
    ("setup.cache_fill.spark_collect_s", "s"),
    ("setup.warmup.s", "s"),
    ("bench.op_wall_s", "s"),
    ("bench.op_self_s", "s"),
    ("bench.tracer_overhead_s", "s"),
    ("spark.jobs", "count"),
    ("spark.tasks", "count"),
    ("spark.collect.s", "s"),
    ("spark.rows_collected", "count"),
    ("search.brute_force.self_s", "s"),
    ("search.bound_calls", "count"),
    ("upper_bound.evaluate.self_s", "s"),
    ("upper_bound.evaluate.calls", "count"),
    ("model_error.demand_tensor.s", "s"),
    ("model_error.demand_tensor.calls", "count"),
    ("models.fit.s", "s"),
    ("models.fit.calls", "count"),
    ("models.predict.s", "s"),
    ("model_error.total_model_error.s", "s"),
    ("expression_error.local.s", "s"),
    ("expression_error.local.calls", "count"),
    ("expression_error.local.hgrids", "count"),
    ("expression_error.local.point_evals", "count"),
    ("expression_error.local.point_evals_per_hgrid", "count"),
    ("expression_error.by_mgrid.s", "s"),
    ("alpha.alpha_by_hgrid.s", "s"),
    ("real_error.measured_real_error.s", "s"),
    ("dispatch.day_orders.s", "s"),
    ("dispatch.day_orders.rows", "count"),
    ("dispatch.mean_fare_by_cell.s", "s"),
    ("dispatch.weights.s", "s"),
    ("dispatch.simulate_day.s", "s"),
    ("dispatch.simulate_day.orders", "count"),
    ("routing.run_daif_day.s", "s"),
    ("routing.run_daif_day.requests", "count"),
    ("jvm_peak_rss_mb", "MB"),
    ("host.steal_frac", "ratio"),
    ("host.cpu_probe_s", "s"),
)

#: layers whose self time is reported as ``<layer>.self_s`` (they have
#: traced children); every other layer as ``<layer>.s``
_SELF_S = ("search.brute_force", "upper_bound.evaluate")


# ---------------------------------------------------------------------------
# host and process readings
# ---------------------------------------------------------------------------

def driver_mem() -> str:
    """Half of MemTotal in GiB, clamped to [2, 8] (the tier-1 sizing)."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    return (vals[7] if len(vals) > 7 else 0), sum(vals[:8])


def cpu_probe_s(repeats: int = 30) -> float:
    """Fastest of ``repeats`` runs of a fixed pure-Python loop: how fast the
    host runs this process right now, independent of the program."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024.0


# ---------------------------------------------------------------------------
# Spark session
# ---------------------------------------------------------------------------

def start_spark():
    """local[2] session with the jobs/_session SQL confs, no UI or progress
    bars, every scratch file under WORK, and ``repro`` importable by the
    Python workers."""
    local, tmp = WORK / "spark-local", WORK / "tmp"
    shutil.rmtree(WORK, ignore_errors=True)
    local.mkdir(parents=True)
    tmp.mkdir(parents=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master", MASTER,
            "--driver-memory", driver_mem(),
            # no hsperfdata file in the system temp dir
            "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", shlex.quote(f"spark.local.dir={local}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM (it exits on stdin EOF) and wait."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spark_work(sc, groups: list[str]) -> tuple[int, int]:
    """(jobs, completed tasks) run under the given job groups. The status
    store is fed asynchronously, so poll until two readings agree."""
    tracker = sc.statusTracker()
    last = None
    for _ in range(20):
        jobs = tasks = 0
        for g in groups:
            for jid in tracker.getJobIdsForGroup(g):
                jobs += 1
                info = tracker.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    stage = tracker.getStageInfo(sid)
                    tasks += stage.numCompletedTasks if stage else 0
        if (jobs, tasks) == last:
            break
        last = (jobs, tasks)
        time.sleep(0.25)
    return last


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Context:
    """What the workloads see: the session, the city data and the seed."""

    def __init__(self, spark, data, seed: int):
        self.spark, self.data, self.seed, self.root = spark, data, seed, ROOT
        self._pdf = None

    def events_pdf(self):
        """The cached events as pandas, collected once, for the checks."""
        if self._pdf is None:
            self._pdf = self.data.events.toPandas()
        return self._pdf


def run_passes(ops, passes: int, *, tracer=None, sc=None, frame_cls=None):
    """Run whole passes over ``ops``; return (plain, traced, errors, job
    groups), where plain/traced map each op key to its (seconds, output)
    repeats. With a tracer every plain pass is followed by a traced one, so
    both sides see the same drift (a JVM still warming up, a busier host)."""
    plain = {key: [] for key, _ in ops}
    traced = {key: [] for key, _ in ops}
    errors, groups = [], []
    for p in range(passes):
        for reps in (plain, traced) if tracer else (plain,):
            if reps is traced:
                tracer.install(frame_cls)
            try:
                for key, fn in ops:
                    try:
                        if reps is plain:
                            t0 = time.perf_counter()
                            out = fn()
                            dt = time.perf_counter() - t0
                        else:
                            group = f"traced-{p}-{key}"
                            sc.setJobGroup(group, group)
                            groups.append(group)
                            out, dt = tracer.op(fn)
                    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                        errors.append(f"{key} (pass {p}): {type(exc).__name__}: {exc}"[:400])
                        continue
                    reps[key].append((dt, out))
            finally:
                if reps is traced:
                    tracer.uninstall()
                    sc.setJobGroup("bench", "bench")
    return plain, traced, errors, groups


def fastest(reps: dict) -> dict:
    return {k: min(dt for dt, _ in v) for k, v in reps.items() if v}


def per_layer(tracer, n_ops: int, jobs_tasks, overhead: float, run: dict) -> dict:
    """The traced run's metrics, keyed as in PER_LAYER; ``run`` holds the
    set-up phases and host readings."""
    n = max(n_ops, 1)
    c, self_s = tracer.counts, tracer.self_s
    out = dict(run)
    out.update((name, v / n) for name, v in c.items())
    for layer in {layer for _, _, layer, _ in SITES}:
        out[layer + (".self_s" if layer in _SELF_S else ".s")] = self_s[layer] / n
    hgrids = c["expression_error.local.hgrids"]
    out["expression_error.local.point_evals_per_hgrid"] = (
        c["expression_error.local.point_evals"] / hgrids if hgrids else 0.0
    )
    out["bench.op_wall_s"] = tracer.total_s["bench.op"] / n
    out["bench.op_self_s"] = self_s["bench.op"] / n
    out["bench.tracer_overhead_s"] = overhead
    out["spark.collect.s"] = tracer.total_s["spark.collect"] / n
    out["spark.jobs"], out["spark.tasks"] = (v / n for v in jobs_tasks)
    return {name: {"value": float(out.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    steal0 = cpu_ticks()

    # -- set-up -------------------------------------------------------------
    phases = {}
    t = time.perf_counter()
    spark = start_spark()
    sc = spark.sparkContext
    phases["spark.launch.s"] = time.perf_counter() - t
    jvm_pid = sc._jvm.java.lang.ProcessHandle.current().pid()

    from repro.experiments.config import BENCH, CityData
    from repro.synth_data import NYC, taxi_trips

    t = time.perf_counter()
    frame = taxi_trips(spark, NYC, sf=BENCH.sf, days=BENCH.days, slots=BENCH.slots, seed=args.seed)
    phases["synth_data.taxi_trips.s"] = time.perf_counter() - t
    t = time.perf_counter()
    events = frame.cache()
    events.count()
    phases["spark.create_cache.s"] = time.perf_counter() - t
    ctx = Context(spark, CityData(cfg=NYC, events=events, settings=BENCH), args.seed)
    workload = WORKLOADS[args.workload](ctx)

    fill_tracer = Tracer() if args.trace else None
    if fill_tracer:
        fill_tracer.install(type(events))
        sc.setJobGroup("fill", "fill")
    t = time.perf_counter()
    try:
        workload.setup()
    finally:
        if fill_tracer:
            fill_tracer.uninstall()
            sc.setJobGroup("bench", "bench")
    phases["setup.cache_fill.s"] = time.perf_counter() - t
    if fill_tracer:
        phases["setup.cache_fill.spark_jobs"] = spark_work(sc, ["fill"])[0]
        phases["setup.cache_fill.spark_collect_s"] = fill_tracer.total_s["spark.collect"]

    ops = workload.ops()
    t = time.perf_counter()
    warm, _, errors, _ = run_passes(ops, 1)
    phases["setup.warmup.s"] = time.perf_counter() - t
    reference = {k: v[0][1] for k, v in warm.items() if v}

    # -- measured passes ------------------------------------------------------
    setup_s = time.perf_counter() - T_START
    passes = workload.passes(args.seconds)
    tracer = Tracer() if args.trace else None
    plain, traced, errs, groups = run_passes(
        ops, passes, tracer=tracer, sc=sc, frame_cls=type(events)
    )
    errors += errs
    steal1 = cpu_ticks()
    host = {
        "py_peak_rss_mb": peak_rss_mb(),
        "jvm_peak_rss_mb": peak_rss_mb(jvm_pid),
        "host.steal_frac": (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1),
        "host.cpu_probe_s": cpu_probe_s(),
    }
    best = fastest(plain)
    if args.trace:
        best_traced = fastest(traced)
        both = [k for k in best if k in best_traced]
        overhead = statistics.fmean(best_traced[k] - best[k] for k in both) if both else 0.0
        n_ops = sum(len(v) for v in traced.values())
        metrics = per_layer(tracer, n_ops, spark_work(sc, groups), overhead, {**phases, **host})
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(best.values()) if best else 0.0,
            "py_peak_rss_mb": host["py_peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    # -- checks (outside the timed region) -----------------------------------
    failed = len(errors)
    attempted = len(errors)
    for reps in (plain, traced):
        for key, runs in reps.items():
            for _, out in runs:
                attempted += 1
                problems = workload.check_op(key, out, reference.get(key))
                if problems:
                    failed += 1
                    errors += problems
    last = {k: v[-1][1] for k, v in plain.items() if v}
    if len(last) == len(ops):
        problems = workload.check_run(last)
        errors += problems
        failed += len(problems)
    failed = min(failed, attempted)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "ops_fastest_s": best, "setup_phases_s": phases, **host,
        "master": MASTER, "driver_memory": driver_mem(),
        "python": platform.python_version(), "spark": spark.version,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "failures": errors[:20],
    }
    stop_spark(spark)
    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
