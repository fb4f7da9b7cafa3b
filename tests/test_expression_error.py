"""Tests for expression error (paper §III-B, Eq. 7, Algorithms 1-2)."""
import math
import tracemalloc

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alpha import alpha_by_hgrid
from repro.core.expression_error import (
    expression_error_alg1,
    expression_error_alg2,
    expression_error_direct,
    expression_error_fast,
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
        got = expression_error_fast(alphas, m, K)[0]
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
    assert expression_error_fast(alphas, m, None)[0] == pytest.approx(mc, rel=0.01)


def test_m_equals_one_is_zero():
    assert expression_error_alg1(5.0, 0.0, 1, 50) == 0.0
    assert expression_error_alg2(5.0, 0.0, 1, 50) == 0.0
    assert expression_error_fast(np.array([5.0]), 1, 50)[0] == 0.0


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
        ref = expression_error_fast(alphas, m, None)[0]
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
    assert expression_error_fast(alphas, m, K)[0] == pytest.approx(
        expression_error_direct(alpha, b, m, K), rel=1e-8, abs=1e-10
    )


class TestFastKernel:
    def test_shape_and_dedupe(self):
        alphas = np.array([1.0, 1.0, 2.0, 0.0])
        out = expression_error_fast(alphas, 4, None)
        assert out.shape == (4,)
        assert out[0] == out[1]  # identical alphas share the evaluation
        assert (out >= 0).all()

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            expression_error_fast(np.ones(4), 5, None)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            expression_error_fast(np.ones((2, 2)), 4, None)

    def test_window_beyond_truncation(self):
        """Poisson(beta) lies wholly beyond (m-1)K: every kept Eq. 7 term
        is negligible, as Alg. 2 and the direct sum agree."""
        alphas = np.array([1.0] + [50.0] * 63)
        out = expression_error_fast(alphas, 64, K=5)
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
            expression_error_fast(np.array([1.0, bad, 2.0]), 3, None)

    def test_rejects_negative_K(self):
        with pytest.raises(ValueError, match="K must be >= 0"):
            expression_error_fast(np.ones(4), 4, -1)

    def test_zero_alpha_still_positive_error(self):
        """An empty HGrid inside a busy MGrid still gets beta/m of error."""
        alphas = np.array([0.0, 8.0, 8.0, 8.0])
        out = expression_error_fast(alphas, 4, None)
        assert out[0] == pytest.approx(24.0 / 4, rel=1e-6)

    def test_large_beta_stable(self):
        """Log-space windowing avoids underflow where Alg. 1/2 cannot go."""
        alphas = np.concatenate([[5.0], np.full(255, 30.0)])
        out = expression_error_fast(alphas, 256, None)
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
            lambda g: expression_error_fast(g.to_numpy(), spec.m, None).sum()
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
