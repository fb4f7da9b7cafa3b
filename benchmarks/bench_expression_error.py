"""Benchmark: expression-error algorithms vs K (paper Appendix D, Fig. 16).

The paper reports: the unoptimised O(m*K^3)-style computation explodes with
K, Algorithm 1 (O(m*K^2)) grows quadratically, Algorithm 2 (O(m*K)) stays
cheap. We benchmark all three plus the vectorised production kernel at the
paper's default-shaped instance (m = 8x8, alphas of one busy MGrid).
"""
import numpy as np
import pytest

from repro.core.expression_error import (
    expression_error_alg1,
    expression_error_alg2,
    expression_error_direct,
    expression_errors,
)

M = 64  # paper Appendix D: m = 8x8
ALPHA, BETA = 2.0, 40.0
ALPHAS = np.concatenate([[ALPHA], np.full(M - 1, BETA / (M - 1))])


@pytest.mark.parametrize("K", [10, 25, 50])
def test_alg1_cost(benchmark, K):
    out = benchmark(expression_error_alg1, ALPHA, BETA, M, K)
    assert out >= 0


@pytest.mark.parametrize("K", [10, 25, 50, 100, 250])
def test_alg2_cost(benchmark, K):
    out = benchmark(expression_error_alg2, ALPHA, BETA, M, K)
    assert out >= 0


@pytest.mark.parametrize("K", [10, 25, 50])
def test_direct_cost(benchmark, K):
    out = benchmark(expression_error_direct, ALPHA, BETA, M, K)
    assert out >= 0


@pytest.mark.parametrize("K", [50, 250, None])
def test_fast_kernel_whole_mgrid(benchmark, K):
    """The production kernel computes all 64 HGrids of the MGrid at once."""
    out = benchmark(expression_errors, ALPHAS, np.zeros(M, dtype=np.int64), M, K)
    assert out.shape == (M,)
