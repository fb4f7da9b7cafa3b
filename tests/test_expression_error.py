"""Tests for expression error (paper §III-B, Eq. 7, Algorithms 1-2)."""
import math
import sys
import tracemalloc

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import expression_error as ee
from repro.core.alpha import alpha_by_hgrid
from repro.core.expression_error import (
    _auto_K,
    _BLOCK_CELLS,
    _log_factorial,
    _window_bounds,
    expression_error_alg1,
    expression_error_alg2,
    expression_error_direct,
    expression_errors,
    total_expression_error_local,
)
from repro.core.grids import grid_spec
from repro.experiments.config import TESTS

CASES = [
    (0.5, 3.0, 4, 40),
    (2.0, 10.0, 9, 50),
    (0.0, 5.0, 16, 30),
    (7.0, 1.0, 4, 80),
    (1.0, 0.0, 2, 40),
    (0.0, 0.0, 8, 10),
    (3.3, 3.3, 2, 60),
]


def _one_mgrid(alphas, m, K):
    """The kernel over one MGrid holding every HGrid of ``alphas``."""
    return expression_errors(alphas, np.zeros(np.size(alphas), dtype=np.int64), m, K)


@pytest.mark.parametrize("alpha,beta,m,K", CASES)
class TestImplementationsAgree:
    def test_alg1_equals_direct(self, alpha, beta, m, K):
        assert expression_error_alg1(alpha, beta, m, K) == pytest.approx(
            expression_error_direct(alpha, beta, m, K), rel=1e-10, abs=1e-12
        )

    def test_alg2_equals_direct(self, alpha, beta, m, K):
        assert expression_error_alg2(alpha, beta, m, K) == pytest.approx(
            expression_error_direct(alpha, beta, m, K), rel=1e-10, abs=1e-12
        )

    def test_fast_matches_direct(self, alpha, beta, m, K):
        alphas = np.concatenate([[alpha], np.full(m - 1, beta / max(m - 1, 1))])
        got = _one_mgrid(alphas, m, K)[0]
        assert got == pytest.approx(
            expression_error_direct(alpha, beta, m, K), rel=1e-8, abs=1e-10
        )


@pytest.mark.parametrize("alpha,beta,m", [(0.7, 2.0, 4), (3.0, 9.0, 16), (0.2, 40.0, 64)])
def test_matches_monte_carlo(alpha, beta, m):
    rng = np.random.default_rng(42)
    lh = rng.poisson(alpha, 500_000)
    lm = rng.poisson(beta, 500_000)
    mc = np.abs((m - 1) * lh - lm).mean() / m
    alphas = np.concatenate([[alpha], np.full(m - 1, beta / (m - 1))])
    assert _one_mgrid(alphas, m, None)[0] == pytest.approx(mc, rel=0.01)


def test_m_equals_one_is_zero():
    assert expression_error_alg1(5.0, 0.0, 1, 50) == 0.0
    assert expression_error_alg2(5.0, 0.0, 1, 50) == 0.0
    assert _one_mgrid(np.array([5.0]), 1, 50)[0] == 0.0


class TestConvergenceInK:
    """Theorem III.2: truncation error vanishes as K grows."""

    @pytest.mark.parametrize("alpha,beta,m", [(1.5, 6.0, 4), (4.0, 2.0, 3)])
    def test_monotone_in_K(self, alpha, beta, m):
        vals = [expression_error_direct(alpha, beta, m, K) for K in (5, 10, 20, 40, 80)]
        # truncated sums of positive terms grow in K (up to float round-off
        # once converged)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,beta,m", [(1.5, 6.0, 4), (4.0, 2.0, 3)])
    def test_converges_to_auto_K(self, alpha, beta, m):
        alphas = np.concatenate([[alpha], np.full(m - 1, beta / (m - 1))])
        ref = _one_mgrid(alphas, m, None)[0]
        assert expression_error_direct(alpha, beta, m, 120) == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("alpha,beta,m,K", CASES)
def test_lemma_III_1_upper_bound(alpha, beta, m, K):
    """sum b_{k_h,k_m} < (1 - 2/m) alpha + alpha_bar_i (Lemma III.1);
    the lemma's bound can be negative-free only for m >= 2."""
    if m < 2:
        pytest.skip("lemma stated for m >= 2")
    bound = (1 - 2 / m) * alpha + (alpha + beta) / m
    if bound <= 0:
        pytest.skip("degenerate all-zero case")
    assert expression_error_direct(alpha, beta, m, K) < bound + 1e-12


@given(
    alpha=st.floats(0.0, 6.0),
    beta=st.floats(0.0, 12.0),
    m=st.integers(2, 12),
)
@settings(max_examples=40, deadline=None)
def test_alg2_equals_direct_property(alpha, beta, m):
    K = 40
    assert expression_error_alg2(alpha, beta, m, K) == pytest.approx(
        expression_error_direct(alpha, beta, m, K), rel=1e-8, abs=1e-10
    )


@given(
    alpha=st.floats(0.0, 300.0),
    beta=st.floats(0.0, 700.0),
    m=st.integers(2, 16),
    K=st.integers(0, 40),
)
@settings(max_examples=200, deadline=None)
def test_fast_equals_direct_property(alpha, beta, m, K):
    """The fast kernel is Eq. 7 truncated at (K, (m-1)K) for any K, also
    far below the Poisson mass and with beta's window beyond (m-1)K."""
    alphas = np.concatenate([[alpha], np.full(m - 1, beta / (m - 1))])
    b = float(alphas.sum()) - alpha
    assert _one_mgrid(alphas, m, K)[0] == pytest.approx(
        expression_error_direct(alpha, b, m, K), rel=1e-8, abs=1e-10
    )


class TestFastKernel:
    """The kernel on the HGrids of one MGrid."""

    def test_shape_and_dedupe(self):
        alphas = np.array([1.0, 1.0, 2.0, 0.0])
        out = _one_mgrid(alphas, 4, None)
        assert out.shape == (4,)
        assert out[0] == out[1]  # identical alphas share the evaluation
        assert (out >= 0).all()

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="every MGrid must have m=5"):
            _one_mgrid(np.ones(4), 5, None)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match=r"shapes \(2, 2\) and \(4,\)"):
            _one_mgrid(np.ones((2, 2)), 4, None)

    def test_window_beyond_truncation(self):
        """Poisson(beta) lies wholly beyond (m-1)K: every kept Eq. 7 term
        is negligible, as Alg. 2 and the direct sum agree."""
        alphas = np.array([1.0] + [50.0] * 63)
        out = _one_mgrid(alphas, 64, K=5)
        assert out[0] == expression_error_alg2(1.0, 3150.0, 64, 5) == 0.0
        assert out[0] == expression_error_direct(1.0, 3150.0, 64, 5)

    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.nan, "alphas contain NaN"),
            (np.inf, "infinite"),
            (-np.inf, "infinite"),
            (-0.5, "negative"),
        ],
    )
    def test_rejects_bad_alpha(self, bad, match):
        with pytest.raises(ValueError, match=match):
            _one_mgrid(np.array([1.0, bad, 2.0]), 3, None)

    def test_rejects_negative_K(self):
        with pytest.raises(ValueError, match="K must be >= 0"):
            _one_mgrid(np.ones(4), 4, -1)

    def test_zero_alpha_still_positive_error(self):
        """An empty HGrid inside a busy MGrid still gets beta/m of error."""
        alphas = np.array([0.0, 8.0, 8.0, 8.0])
        out = _one_mgrid(alphas, 4, None)
        assert out[0] == pytest.approx(24.0 / 4, rel=1e-6)

    def test_large_beta_stable(self):
        """Log-space windowing avoids underflow where Alg. 1/2 cannot go."""
        alphas = np.concatenate([[5.0], np.full(255, 30.0)])
        out = _one_mgrid(alphas, 256, None)
        assert np.isfinite(out).all() and (out >= 0).all()


class TestLocalDriver:
    """:func:`total_expression_error_local` — the one production driver."""

    def test_groups_shuffled_pairs_by_mgrid(self):
        """Over shuffled (alpha, mgrid) pairs the total equals the sum, over
        MGrids, of the Eq. 7 direct sum on each MGrid's HGrids."""
        rng = np.random.default_rng(5)
        n, m = 6, 4
        alphas = rng.gamma(1.0, 1.5, n * m) * (rng.random(n * m) > 0.3)
        mg = np.repeat(np.arange(n), m)
        perm = rng.permutation(n * m)
        expect = 0.0
        for i in range(n):
            group = alphas[mg == i]
            total = group.sum()
            expect += sum(expression_error_direct(a, total - a, m, 60) for a in group)
        got = total_expression_error_local(alphas[perm], mg[perm], m)
        assert got == pytest.approx(expect, rel=1e-8, abs=1e-10)

    def test_total_is_sum_over_mgrids(self, nyc):
        """On real alphas, the total is the per-MGrid fast kernel summed."""
        spec = grid_spec(nyc.cfg, 4, 16)
        alphas, mg = alpha_by_hgrid(
            nyc.counts.table, spec, train_days=TESTS.train_days, slots=TESTS.slots
        )
        row = alphas[TESTS.default_slot]
        per = pd.Series(row).groupby(mg).apply(
            lambda g: _one_mgrid(g.to_numpy(), spec.m, None).sum()
        )
        assert len(per) == spec.n and (per >= 0).all()
        assert total_expression_error_local(row, mg, spec.m) == pytest.approx(
            per.sum(), rel=1e-12
        )

    def test_rejects_incomplete_mgrid(self):
        with pytest.raises(ValueError, match="m=4"):
            total_expression_error_local(np.ones(7), np.repeat([0, 1], [4, 3]), 4)

    def test_rejects_nan(self):
        alphas = np.array([1.0, np.nan, 0.0, 2.0])
        with pytest.raises(ValueError, match="alphas contain NaN"):
            total_expression_error_local(alphas, np.zeros(4, dtype=int), 4)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="got 8 alphas but 7 MGrid ids"):
            total_expression_error_local(np.ones(8), np.repeat([0, 1], [4, 3]), 4)

    def test_m_equals_one_is_zero(self):
        """side = N_side: every HGrid is its own MGrid, uniform spreading is exact."""
        assert total_expression_error_local(np.array([3.0, 0.0, 7.5]), np.arange(3), 1) == 0.0

    def test_bounded_memory(self):
        """2 MGrids x m = 1024 distinct alphas ~ U(40, 60): beta ~ 51k, so each
        beta window is ~6.4k cells wide and one unblocked pad of all 2048
        windows would take over 100 MB per array."""
        rng = np.random.default_rng(3)
        alphas = rng.uniform(40.0, 60.0, 2 * 1024)
        mg = np.repeat([0, 1], 1024)
        tracemalloc.start()
        try:
            got = total_expression_error_local(alphas, mg, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert math.isfinite(got) and got >= 0


def _cover(lam: float) -> int:
    """A truncation K that covers Poisson(lam)'s mass far beyond double precision."""
    return int(lam + 14.0 * math.sqrt(lam)) + 12


@st.composite
def _slots(draw):
    """One slot's (alphas, MGrid ids, m, K): several MGrids in shuffled HGrid
    order, alphas drawn from a small pool holding 0 (so values repeat), and
    K either auto or explicit — small enough for whole windows to lie past
    the truncation when alphas reach 300."""
    m = draw(st.integers(2, 16))
    n = draw(st.integers(2, 5))
    K = draw(st.one_of(st.none(), st.integers(0, 40)))
    top = 20.0 if K is None else 300.0
    pool = [0.0, *draw(st.lists(st.floats(0.0, top), min_size=1, max_size=5))]
    alphas = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * m, max_size=n * m)))
    mg = np.repeat(np.arange(n), m)[draw(st.permutations(range(n * m)))]
    return alphas, mg, m, K


@given(case=_slots())
@example(case=(np.array([0.0, 1.0, 300.0, 300.0, 0.0, 0.0, 3.0, 3.0]),
               np.array([0, 1, 0, 1, 1, 0, 0, 1]), 4, 2))
@settings(max_examples=60, deadline=None)
def test_local_driver_equals_direct_property(case):
    """The whole-slot driver is the per-MGrid Eq. 7 direct sum, also with
    windows wholly beyond an explicit K (the example: K = 2, alpha = 300
    and beta >= 300)."""
    alphas, mg, m, K = case
    expect = 0.0
    for i in np.unique(mg):
        group = alphas[mg == i]
        total = float(group.sum())
        k = K if K is not None else max(
            max(_cover(a) for a in group), -(-_cover(total) // (m - 1))
        )
        expect += sum(expression_error_direct(a, total - a, m, k) for a in group)
    got = total_expression_error_local(alphas, mg, m, K)
    assert got == pytest.approx(expect, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# the unpadded kernel against the padded driver it replaced
# ---------------------------------------------------------------------------

def _padded_window(lam, k_max):
    """(lo, pmf): each Poisson(lam) window as a row of lo + 0..W-1,
    zero-padded to the widest row."""
    lo, hi = _window_bounds(lam, k_max)
    width = hi - lo + 1
    j = np.arange(max(int(width.max(initial=0)), 1))
    k = lo[:, None] + j
    log_fact = np.zeros(k.shape)
    np.cumsum(np.log(k[:, 1:]), axis=1, out=log_fact[:, 1:])
    log_fact += _log_factorial(lo)[:, None]
    log_lam = np.log(np.where(lam > 0, lam, 1.0))
    log_pmf = k * log_lam[:, None] - lam[:, None] - log_fact
    return lo, np.where(j < width[:, None], np.exp(log_pmf), 0.0)


def _padded_block(alpha, beta, k_cap, m):
    """E_e of each (alpha, beta) row truncated at k_h <= k_cap, with both
    windows of every row padded to the block's widest."""
    lo_a, pmf_a = _padded_window(alpha, k_cap)
    lo_b, pmf_b = _padded_window(beta, (m - 1) * k_cap)
    k_b = lo_b[:, None] + np.arange(pmf_b.shape[1])
    cum = np.cumsum(np.stack([pmf_b, k_b * pmf_b]), axis=2)
    k_h = lo_a[:, None] + np.arange(pmf_a.shape[1])
    idx = (m - 1) * k_h - lo_b[:, None]
    at_q = np.take_along_axis(cum, np.clip(idx, 0, pmf_b.shape[1] - 1)[None], axis=2)
    dev = 2.0 * np.where(idx < 0, 0.0, at_q) - cum[:, :, -1:]
    e1 = (k_h * pmf_a * dev[0]).sum(axis=1)
    e2 = (pmf_a * dev[1]).sum(axis=1)
    return ((m - 1) * e1 - e2) / m


def _padded_kernel(alphas, mgrid_of_cell, m, K):
    """The padded driver the production kernel replaced, kept as its oracle:
    distinct (beta, alpha) pairs in blocks of at most _BLOCK_CELLS padded
    cells, every pair padded to its block's widest alpha and beta windows."""
    _, mg = np.unique(mgrid_of_cell, return_inverse=True)
    if m == 1:
        return np.zeros(alphas.size)
    betas = np.bincount(mg, alphas)[mg] - alphas
    pairs, inv = np.unique(np.stack([betas, alphas], axis=1), axis=0, return_inverse=True)
    beta, alpha = pairs[:, 0], pairs[:, 1]
    if K is None:
        k_cap = np.maximum(_auto_K(alpha), -(-_auto_K(beta) // (m - 1)))
    else:
        k_cap = np.full(alpha.size, K, dtype=np.int64)
    lo_a, hi_a = _window_bounds(alpha, k_cap)
    lo_b, hi_b = _window_bounds(beta, (m - 1) * k_cap)
    w_a = np.maximum(hi_a - lo_a + 1, 1)
    w_b = np.maximum(hi_b - lo_b + 1, 1)
    out = np.empty(alpha.size)
    start = 0
    while start < alpha.size:
        span = slice(start, start + _BLOCK_CELLS // int(w_a[start] + w_b[start]) + 1)
        stop = start + max(1, _BLOCK_CELLS // int(w_a[span].max() + w_b[span].max()))
        rows = slice(start, stop)
        out[rows] = _padded_block(alpha[rows], beta[rows], k_cap[rows], m)
        start = stop
    return out[inv.reshape(-1)]


def _assert_matches_padded(alphas, mg, m, K=None):
    np.testing.assert_allclose(
        expression_errors(alphas, mg, m, K), _padded_kernel(alphas, mg, m, K), rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("city", ["nyc", "chengdu", "xian"])
def test_equals_padded_kernel_on_tests_cities(city, request):
    """Every HGrid of every slot's alpha row, at every swept side of the
    TESTS lattice, is within 1e-12 relative of the padded driver."""
    data = request.getfixturevalue(city)
    st = data.settings
    for side in range(st.s_min, st.s_max + 1):
        alphas, mg = data.counts.alphas(side)
        m = data.counts.spec(side).m
        for row in alphas:
            _assert_matches_padded(row, mg, m)


def _gamma_row(n: int, m: int, scale: float, seed: int):
    """``n`` MGrids of ``m`` HGrids: gamma alphas with a third of them 0."""
    rng = np.random.default_rng(seed)
    alphas = rng.gamma(0.8, scale, n * m) * (rng.random(n * m) > 0.3)
    return alphas, rng.permutation(np.repeat(np.arange(n), m))


class TestEqualsPaddedKernel:
    """The edge cases of the kernel's domain, against the padded driver."""

    @pytest.mark.parametrize("K", [0, 1, 3, 40])
    def test_explicit_K(self, K):
        # alphas up to ~300: many windows lie partly or wholly beyond K
        _assert_matches_padded(*_gamma_row(40, 9, 40.0, seed=K), 9, K)

    @pytest.mark.parametrize("K", [None, 0, 5])
    def test_all_zero_alphas(self, K):
        alphas = np.zeros(64)
        _assert_matches_padded(alphas, np.repeat(np.arange(16), 4), 4, K)
        assert not expression_errors(alphas, np.repeat(np.arange(16), 4), 4, K).any()

    @pytest.mark.parametrize("K", [None, 2])
    def test_m_equals_two(self, K):
        _assert_matches_padded(*_gamma_row(300, 2, 6.0, seed=2), 2, K)

    def test_uniform_wide_mgrid(self):
        """One m = 1024 MGrid of similar alphas: beta windows ~1.1k cells
        wide, all of one width class (the paper-scale side-4 shape)."""
        rng = np.random.default_rng(4)
        alphas = rng.uniform(0.5, 2.5, 1024).round(2)
        _assert_matches_padded(alphas, np.zeros(1024, dtype=np.int64), 1024)

    def test_windows_wholly_beyond_K(self):
        """alpha = 300 and beta >= 300 at K = 2: both windows lie past the
        truncation, so those HGrids are 0, as in Eq. 7 truncated."""
        alphas = np.array([0.0, 1.0, 300.0, 300.0, 0.0, 0.0, 3.0, 3.0, 500.0, 0.0, 0.0, 0.0])
        mg = np.array([0, 1, 0, 1, 1, 0, 0, 1, 2, 2, 2, 2])
        _assert_matches_padded(alphas, mg, 4, 2)
        assert expression_errors(alphas, mg, 4, 2)[[2, 3, 8]].tolist() == [0.0, 0.0, 0.0]


def _spread_row(seed: int):
    """256 MGrids of m = 4 whose mean loads spread log-uniformly over
    0.05..150: Poisson windows from 1 to ~1000 cells wide."""
    rng = np.random.default_rng(seed)
    scale = np.repeat(np.exp(rng.uniform(np.log(0.05), np.log(150.0), 256)), 4)
    alphas = rng.gamma(0.8, scale) * (rng.random(scale.size) > 0.3)
    return alphas, rng.permutation(np.repeat(np.arange(256), 4))


def _points_evaluated(monkeypatch, module, name, run) -> int:
    """Poisson points the window function ``module.name`` computes in ``run()``."""
    sizes = []
    window = getattr(module, name)

    def counted(*args):
        out = window(*args)
        sizes.append(out[1].size)
        return out

    monkeypatch.setattr(module, name, counted)
    run()
    monkeypatch.setattr(module, name, window)
    return sum(sizes)


def test_padding_stays_below_twice_the_windows(monkeypatch):
    """On a fixed alpha row, the kernel exponentiates at most twice the
    points of its alpha windows (one per distinct pair) and its distinct
    beta windows, so padding cannot creep back; the padded driver computes
    more than twice as many on the same row."""
    alphas, mg = _spread_row(7)
    betas = np.bincount(mg, alphas)[mg] - alphas
    pairs = np.unique(np.stack([betas, alphas], axis=1), axis=0)

    def points(lam):
        lo, hi = _window_bounds(lam, _auto_K(lam))
        return int((hi - lo + 1).sum())

    unpadded = points(pairs[:, 1]) + points(np.unique(pairs[:, 0]))
    kernel = _points_evaluated(
        monkeypatch, ee, "_log_pois_window", lambda: expression_errors(alphas, mg, 4, None)
    )
    assert unpadded <= kernel <= 2 * unpadded
    padded = _points_evaluated(
        monkeypatch, sys.modules[__name__], "_padded_window",
        lambda: _padded_kernel(alphas, mg, 4, None),
    )
    assert padded > 2 * unpadded


def test_paper_shaped_memory():
    """16,384 HGrids in MGrids of m = 4 with distinct alphas ~ U(0, 50): the
    paper's lattice at side 64, whose ~16k distinct beta windows and
    ~2.4M alpha points stay within the scratch budget."""
    rng = np.random.default_rng(11)
    alphas = rng.uniform(0.0, 50.0, 16_384)
    mg = np.repeat(np.arange(4096), 4)
    tracemalloc.start()
    try:
        got = total_expression_error_local(alphas, mg, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert math.isfinite(got) and got >= 0
