"""Output checks for the benchmark, run outside the timed region.

Two kinds:

* at the seed of the committed tables (``results/``), the ops must
  reproduce them: integers exactly, floats to 1e-9 relative (the tolerance
  the tests use between the two expression-error paths);
* at any seed, the program is held to independent references — the
  DuckDB oracle for the count aggregation, the Eq. 7 direct sum for the
  local kernel, and numpy-binned alphas for the Spark alpha aggregation.

Every function returns a list of failure messages (empty = pass).
"""
import csv
import math
from pathlib import Path

import numpy as np

from repro.core.expression_error import expression_error_direct, total_expression_error_local
from repro.core.grids import GridSpec
from repro.core.model_error import demand_counts
from repro.oracle import assert_equivalent

#: seed at which results/curves_nyc_deepst.csv and results/table3_nyc.csv
#: were generated (the NYC twin's default seed)
REFERENCE_SEED = 11
REL = 1e-9


def close(got: float, want: float, rel: float = REL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def committed_curve(root: Path, side: int) -> dict:
    """The committed error-curve row (NYC, DeepST, slot 17) at ``side``."""
    rows = _read_csv(root / "results" / "curves_nyc_deepst.csv")
    return next(r for r in rows if int(r["n_side"]) == side)


def committed_table3(root: Path) -> list[dict]:
    return _read_csv(root / "results" / "table3_nyc.csv")


def _cells(coord: np.ndarray, extent_km: float, side: int) -> np.ndarray:
    return np.minimum(np.floor(coord / (extent_km / side)).astype(np.int64), side - 1)


def numpy_alphas(events_pdf, spec: GridSpec, *, slot: int, train_days: list[int]):
    """Per-HGrid alphas and their MGrid ids, binned in numpy from the raw
    events — an independent twin of the evaluator's Spark aggregation."""
    ev = events_pdf[(events_pdf["slot"] == slot) & events_pdf["day"].isin(train_days)]
    fx = _cells(ev["x"].to_numpy(), spec.width_km, spec.fine_side)
    fy = _cells(ev["y"].to_numpy(), spec.height_km, spec.fine_side)
    cnt = np.bincount(fy * spec.fine_side + fx, minlength=spec.fine_side**2)
    alphas = cnt.astype(float) / len(train_days)
    h = np.arange(spec.fine_side**2)
    mg = (h // spec.fine_side // spec.m_side) * spec.n_side + (h % spec.fine_side) // spec.m_side
    return alphas, mg


def numpy_expr_error(events_pdf, spec: GridSpec, *, slot: int, train_days: list[int], K) -> float:
    """Total expression error of the local kernel on :func:`numpy_alphas`."""
    alphas, mg = numpy_alphas(events_pdf, spec, slot=slot, train_days=train_days)
    return total_expression_error_local(alphas, mg, spec.m, K)


def _k_cover(lam: float) -> int:
    """A truncation K that covers Poisson(lam) far beyond double precision."""
    return int(lam + 14.0 * math.sqrt(lam)) + 12


def kernel_vs_direct(alphas, mg, m: int, mgrids) -> list[str]:
    """The local kernel on each sampled MGrid against the Eq. 7 direct sum."""
    failures = []
    for i in mgrids:
        group = alphas[mg == i]
        total = float(group.sum())
        K = max(max(_k_cover(float(a)) for a in group), -(-_k_cover(total) // (m - 1)))
        direct = sum(expression_error_direct(float(a), total - float(a), m, K) for a in group)
        local = total_expression_error_local(group, np.zeros(group.size, dtype=np.int64), m)
        if not math.isclose(local, direct, rel_tol=1e-8, abs_tol=1e-10):
            failures.append(f"kernel: MGrid {i} (m={m}) local {local!r} != direct {direct!r}")
    return failures


def sample_mgrids(alphas, mg, rng, k: int = 3) -> list[int]:
    """The busiest MGrid plus ``k - 1`` other non-empty ones drawn by ``rng``."""
    totals = np.bincount(mg, weights=alphas)
    busy = np.flatnonzero(totals > 0)
    picks = rng.choice(busy, size=min(k - 1, busy.size), replace=False)
    return sorted({int(np.argmax(totals)), *map(int, picks)})


def oracle_demand_counts(events, events_pdf, spec: GridSpec) -> list[str]:
    """``demand_counts`` (Spark) against the same aggregation in DuckDB."""
    wc = spec.width_km / spec.fine_side
    hc = spec.height_km / spec.fine_side
    top = spec.fine_side - 1
    sql = (
        "WITH g AS (SELECT day, slot, "
        f"least(CAST(floor(x / CAST('{wc!r}' AS DOUBLE)) AS BIGINT), {top}) AS fx, "
        f"least(CAST(floor(y / CAST('{hc!r}' AS DOUBLE)) AS BIGINT), {top}) AS fy FROM ev) "
        f"SELECT day, slot, CAST(floor(fy / {spec.m_side}) * {spec.n_side} "
        f"+ floor(fx / {spec.m_side}) AS BIGINT) AS mgrid, count(*) AS cnt "
        "FROM g GROUP BY ALL"
    )
    try:
        assert_equivalent(demand_counts(events, spec), sql, ev=events_pdf)
    except AssertionError as exc:
        return [f"oracle: demand_counts at n_side={spec.n_side}: {str(exc)[:300]}"]
    return []
