"""The regeneration commands in ``jobs/`` and the numbers EXPERIMENTS.md
quotes from the ``results/`` files they write."""
import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pandas as pd
import pytest

from repro.experiments.config import SEARCHES

ROOT = Path(__file__).resolve().parent.parent
CITY_FILES = {"NYC": "nyc", "Chengdu": "chengdu", "Xi'an": "xian"}


@pytest.mark.parametrize(
    "job", ["run_error_curves.py", "run_search.py", "run_table3.py", "run_table4.py"]
)
def test_job_runs_from_any_directory(tmp_path, job):
    """A job finds ``src/`` from its own path, not from the working
    directory or ``PYTHONPATH``: ``--help`` works from another directory
    (it starts no JVM), and the ``repro`` the job imports is this
    checkout's ``src/repro``. Under an editable install (``pip install -e
    .``) that is also where ``repro`` resolves without the job's path fix,
    so there only a missing install shows the fault."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    path = ROOT / "jobs" / job

    def run(*args):
        out = subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    assert run(str(path), "--help").startswith("usage:")
    imported = run(
        "-c",
        "import runpy, sys; sys.path.insert(0, sys.argv[1]); runpy.run_path(sys.argv[2]); "
        "print(sys.modules['repro'].__file__)",
        str(path.parent), str(path),
    )
    assert Path(imported.strip()).is_relative_to(ROOT / "src")


def _job(monkeypatch, name: str):
    """``jobs/<name>.py`` imported as a module (its ``main`` is not run)."""
    monkeypatch.syspath_prepend(str(ROOT / "jobs"))
    spec = importlib.util.spec_from_file_location(name, ROOT / "jobs" / f"{name}.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


@pytest.mark.parametrize("stride, written", [(1, []), (4, ["table4_xian.csv"])])
def test_table4_writes_results_only_at_committed_stride(monkeypatch, tmp_path, stride, written):
    """``results/table4_<city>.csv`` holds the stride-4 tables; the paper's
    stride 1 prints its tables and leaves the committed files alone."""
    job = _job(monkeypatch, "run_table4")
    table = pd.DataFrame({
        "city": "xian",
        "algorithm": ["Brute-force Search", "Ternary Search", "Iterative Method"],
        "bound_calls": [228, 84, 61],
        "probability": 1.0,
    })
    data = object()
    slots_run = []
    monkeypatch.setattr(job, "ROOT", tmp_path)
    monkeypatch.setattr(job, "get_spark", lambda app: SimpleNamespace(stop=lambda: None))
    monkeypatch.setattr(job, "load_city", lambda spark, city, st: data)
    monkeypatch.setattr(job, "run_table4", lambda d, slots: slots_run.append(slots) or table)
    monkeypatch.setattr(sys, "argv", ["run_table4.py", "--cities", "xian", "--slots-stride", str(stride)])
    (tmp_path / "results").mkdir()
    job.main()
    assert slots_run == [list(range(0, 48, stride))]
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == written


def _no_spark(app):
    raise AssertionError(f"get_spark({app!r}) was called")


@pytest.mark.parametrize("stride", [0, -1])
def test_table4_rejects_stride_below_one_before_spark(monkeypatch, capsys, stride):
    job = _job(monkeypatch, "run_table4")
    monkeypatch.setattr(job, "get_spark", _no_spark)
    monkeypatch.setattr(sys, "argv", ["run_table4.py", "--slots-stride", str(stride)])
    with pytest.raises(SystemExit) as exit_:
        job.main()
    assert exit_.value.code == 2
    assert "--slots-stride must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("scale, slot", [("bench", -1), ("bench", 48), ("tests", 48)])
def test_search_rejects_slot_out_of_range_before_spark(monkeypatch, capsys, scale, slot):
    job = _job(monkeypatch, "run_search")
    monkeypatch.setattr(job, "get_spark", _no_spark)
    monkeypatch.setattr(sys, "argv", ["run_search.py", "--scale", scale, "--slot", str(slot)])
    with pytest.raises(SystemExit) as exit_:
        job.main()
    assert exit_.value.code == 2
    assert f"--slot must be in [0, 48), got {slot}" in capsys.readouterr().err


@pytest.mark.parametrize("algo, name", [
    ("ternary", "Ternary Search"), ("iterative", "Iterative Method"), ("brute", "Brute-force Search"),
], ids=["ternary", "iterative", "brute"])
def test_search_algo_resolves_to_a_searches_entry(monkeypatch, capsys, algo, name):
    """Each ``--algo`` choice runs the ``SEARCHES`` entry Table IV runs
    under that name, over the scale's sweep."""
    job = _job(monkeypatch, "run_search")
    assert sorted(job.ALGOS.values()) == sorted(SEARCHES)
    ran = []

    def recording(name, search):
        return lambda fn, st: ran.append(name) or search(fn, st)

    evaluator = SimpleNamespace(bound_fn=lambda slot: lambda s: float((s - 3) ** 2), elapsed=0.0)
    monkeypatch.setattr(job, "SEARCHES", {n: recording(n, f) for n, f in SEARCHES.items()})
    monkeypatch.setattr(job, "get_spark", lambda app: SimpleNamespace(stop=lambda: None))
    monkeypatch.setattr(job, "load_city", lambda spark, city, st: None)
    monkeypatch.setattr(job, "UpperBoundEvaluator", SimpleNamespace(for_city=lambda d, m: evaluator))
    monkeypatch.setattr(sys, "argv", ["run_search.py", "--scale", "tests", "--algo", algo])
    job.main()
    assert ran == [name]
    assert "optimal n = 3x3" in capsys.readouterr().out


def _read_csv(name: str) -> list[dict]:
    with open(ROOT / "results" / name, newline="") as f:
        return list(csv.DictReader(f))


def _markdown_table(section: str) -> list[dict]:
    """The first markdown table under the ``## <section>`` heading of
    EXPERIMENTS.md, one dict per body row keyed by the header cells."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    body = text.split(f"\n## {section}", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in body.splitlines() if ln.startswith("|")]
    cells = [[c.strip() for c in ln.strip("|").split("|")] for ln in lines]
    header, rows = cells[0], cells[2:]
    return [dict(zip(header, row)) for row in rows]


def _percent(printed: str, value: float, sign: str = "") -> str:
    """``value`` as a percentage at the precision of ``printed``."""
    number = printed.strip("*+%")
    decimals = len(number.split(".")[1]) if "." in number else 0
    return f"{value * 100:{sign}.{decimals}f}%"


def _curves() -> dict[str, pd.DataFrame]:
    """Every committed error curve, keyed by ``<city>_<model>`` and indexed
    by side."""
    return {
        p.stem.removeprefix("curves_"): pd.read_csv(p, index_col="n_side", float_precision="round_trip")
        for p in (ROOT / "results").glob("curves_*.csv")
    }


def _argmin(df: pd.DataFrame) -> int:
    return int(df["bound"].idxmin())


# Each Figs. 3-5 number EXPERIMENTS.md quotes: the printed text with its
# numbers as format fields, and the curve cells they are read from
FIGS_3_5_QUOTES = {
    "nyc-expr-error": ("NYC: {:.0f} → {:.0f} over s=1→19", lambda c: [
        c["nyc_deepst"].at[1, "expr_error"], c["nyc_deepst"].at[19, "expr_error"],
    ]),
    "expr-error-by-city": ("at s=4: {:.0f} > {:.0f} > {:.0f}; at s=16: {:.0f} > {:.0f} > {:.0f}", lambda c: [
        c[city].at[s, "expr_error"]
        for s in (4, 16) for city in ("nyc_deepst", "chengdu_deepst", "xian_deepst")
    ]),
    "model-error-by-model": ("NYC MLP {:.0f}→{:.0f}, DeepST {:.0f}→{:.0f}, Dmvst {:.0f}→{:.0f} over s=1→19", lambda c: [
        c[f"nyc_{m}"].at[s, "model_error"] for m in ("mlp", "deepst", "dmvst") for s in (1, 19)
    ]),
    "mlp-vs-deepst": ("s=8: {:.0f} vs {:.0f}", lambda c: [
        c["nyc_mlp"].at[8, "model_error"], c["nyc_deepst"].at[8, "model_error"],
    ]),
    "real-over-bound": ("real/bound ≤ {:.2f}", lambda c: [
        max((df["real_error"] / df["bound"]).max() for df in c.values()),
    ]),
    "nyc-bound-flat": ("The NYC bound is flat over s=16–18 ({:.0f} / {:.0f} / {:.0f})", lambda c: [
        c["nyc_deepst"].at[s, "bound"] for s in (16, 17, 18)
    ]),
    "nyc-real-error": ("({:.0f} → {:.0f} over s=16→19), so its minimum is at s=19", lambda c: [
        c["nyc_deepst"].at[s, "real_error"] for s in (16, 19)
    ]),
    "bound-minima-by-city": ("bound minima: NYC s={} (DeepST, Dmvst) and s={} (MLP), Chengdu s={}, Xi'an s={}", lambda c: [
        _argmin(c[k]) for k in ("nyc_deepst", "nyc_mlp", "chengdu_deepst", "xian_deepst")
    ]),
    "bound-minima-by-model": ("bound minima MLP {} ≤ DeepST {} = Dmvst {}", lambda c: [
        _argmin(c[f"nyc_{m}"]) for m in ("mlp", "deepst", "dmvst")
    ]),
}


@pytest.mark.parametrize("quote", FIGS_3_5_QUOTES)
def test_figs_3_5_numbers_match_curves(quote):
    """A quoted number is its curve cell at the printed precision."""
    text, cells = FIGS_3_5_QUOTES[quote]
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    body = doc.split("\n## Error-curve preliminaries", 1)[1].split("\n## ", 1)[0]
    assert text.format(*cells(_curves())) in body


def test_table3_matches_results():
    md = _markdown_table("Table III")
    rows = _read_csv("table3_nyc.csv")
    assert len(md) == len(rows)
    for got, want in zip(md, rows):
        assert (got["Metric"], got["Algorithm"]) == (want["metric"], want["algorithm"])
        assert got["Ours orig n"].replace("×", "x") == want["original_n"]
        assert got["Ours opt n (GridTuner/Alg. 5)"].replace("×", "x") == want["optimal_n"]
        improve = got["Ours improve"].strip("*")
        assert improve == _percent(improve, float(want["improve_ratio"]), "+")


def test_table4_matches_results():
    """Every number of the "Ours" columns except the host-dependent cost."""
    md = _markdown_table("Table IV")
    assert [r["City"] for r in md[::3]] == list(CITY_FILES)
    for i, (city, stem) in enumerate(CITY_FILES.items()):
        rows = _read_csv(f"table4_{stem}.csv")
        assert len(rows) == 3
        for got, want in zip(md[3 * i:3 * i + 3], rows):
            assert got["City"] == city
            assert want["algorithm"].startswith(got["Algorithm"])
            assert int(got["Ours calls"]) == int(want["bound_calls"])
            prob = got["Ours prob."]
            assert prob == _percent(prob, float(want["probability"]))
            orr = got["Ours OR"].rstrip("*")
            assert orr == _percent(orr, float(want["OR"]))


@pytest.mark.parametrize("stem", CITY_FILES.values())
def test_table4_shape_check_holds_on_results(monkeypatch, stem):
    job = _job(monkeypatch, "run_table4")
    assert job.shape_failures(pd.read_csv(ROOT / "results" / f"table4_{stem}.csv")) == []


def test_table4_shape_check_flags_iterative_below_ternary(monkeypatch):
    """The Iterative Method (Alg. 5) must hit the optimum at least as often
    as ternary search; equal rates pass."""
    job = _job(monkeypatch, "run_table4")
    df = pd.read_csv(ROOT / "results" / "table4_nyc.csv")
    algo = df["algorithm"]
    ternary = float(df.loc[algo == "Ternary Search", "probability"].iloc[0])
    df.loc[algo == "Iterative Method", "probability"] = ternary
    assert job.shape_failures(df) == []
    df.loc[algo == "Iterative Method", "probability"] = ternary - 1 / 12
    [failure] = job.shape_failures(df)
    assert failure.startswith("nyc: the Iterative Method")


@pytest.mark.parametrize("path", sorted((ROOT / "results").glob("curves_*.csv")), ids=lambda p: p.stem)
def test_error_curve_checks_hold_on_results(monkeypatch, path):
    job = _job(monkeypatch, "run_error_curves")
    df = pd.read_csv(path)
    assert job.shape_failures(df, path.stem) == []
    assert 0 < job.worst_ratio(df) <= job.BOUND_SLACK


def test_worst_ratio_is_the_largest_over_sides(monkeypatch):
    job = _job(monkeypatch, "run_error_curves")
    df = pd.DataFrame({"real_error": [1.0, 3.0, 2.0], "bound": [2.0, 4.0, 1.6]})
    assert job.worst_ratio(df) == 1.25
    over = df.assign(n_side=[4, 5, 6], expr_error=[3.0, 2.0, 1.0], model_error=[1.0, 2.0, 3.0])
    assert job.shape_failures(over, "c") == ["c: real error exceeds 1.1 x bound at sides [6]"]
