"""Expression error E_e(i,j) = E|lambda_bar_ij - lambda_ij| (paper §III-B).

With ``lambda_ij ~ Poisson(alpha)`` and the rest of the MGrid
``lambda_{i,!=j} ~ Poisson(beta)`` independent (``beta = sum_{g!=j}
alpha_ig``), the error of uniform spreading is

    E_e = E| (m-1)*lambda_ij - lambda_{i,!=j} | / m
        = sum_{k_h, k_m} |(m-1)k_h - k_m| / m * P(alpha,k_h) * P(beta,k_m)

(paper Eq. 7). This module provides:

* :func:`expression_error_direct` — Eq. 7 truncated, the test reference;
* :func:`expression_error_alg1` — the paper's Algorithm 1, O(m*K^2);
* :func:`expression_error_alg2` — the paper's Algorithm 2, O(m*K),
  using the incremental e1'/e2' updates of Eq. 17-19;
* :func:`expression_errors` — the production kernel: batched,
  log-space-stable and windowed (same math as Algorithm 2, safe for large
  beta), over every HGrid of one slot's alpha row at once (a row of the
  table binned by :mod:`repro.core.alpha`). It evaluates each distinct
  (alpha, beta) pair once and each Poisson window once: the distinct beta
  windows in blocks of similar width, the alpha windows laid out flat, so
  it computes almost no padding;
* :func:`total_expression_error_local` — its sum, the quantity
  Algorithm 3 adds up.

Sign convention: the paper's indicator uses I(0) = +1 (Eq. 18 includes the
boundary term in the doubled sum); the Delta = 0 terms cancel between e1
and e2, so all implementations here agree exactly.

Note on Algorithm 1's printed pseudocode: the outer loop as typeset starts
at k_h = 1, which would drop the non-zero k_h = 0 terms of Eq. 7; we start
at 0, which the direct-sum and Monte-Carlo tests confirm.
"""
import math

import numpy as np

#: width of the Poisson window, in standard deviations, kept by the fast
#: kernel. 14 sigma bounds the discarded tail mass below ~1e-40.
_WINDOW_SIGMA = 14.0


# ---------------------------------------------------------------------------
# reference + literal paper algorithms (scalar, for tests and cost benches)
# ---------------------------------------------------------------------------

def _pois_pmf_scalar(lam: float, k_max: int) -> np.ndarray:
    """Poisson pmf 0..k_max via the multiplicative recurrence (stable for
    the small lambdas the literal algorithms are exercised with)."""
    p = np.empty(k_max + 1)
    p[0] = math.exp(-lam)
    for k in range(1, k_max + 1):
        p[k] = p[k - 1] * lam / k
    return p


def expression_error_direct(alpha: float, beta: float, m: int, K: int) -> float:
    """Eq. 7 truncated at (K, (m-1)K) by brute force — O(m*K^2) memory-light
    reference used to validate the optimised implementations."""
    if m == 1:
        return 0.0
    ph = _pois_pmf_scalar(alpha, K)
    pm = _pois_pmf_scalar(beta, (m - 1) * K)
    kh = np.arange(K + 1)[:, None]
    km = np.arange((m - 1) * K + 1)[None, :]
    w = np.abs((m - 1) * kh - km) / m
    return float((w * ph[:, None] * pm[None, :]).sum())


def expression_error_alg1(alpha: float, beta: float, m: int, K: int) -> float:
    """Paper Algorithm 1: double loop with the Eq. 14 recurrence, O(m*K^2)."""
    if m == 1:
        return 0.0
    e = 0.0
    p1 = math.exp(-alpha)
    for k_h in range(0, K + 1):
        p2 = math.exp(-beta)
        for k_m in range(0, (m - 1) * K + 1):
            e += abs((m - 1) * k_h - k_m) / m * p1 * p2
            p2 = p2 * beta / (k_m + 1)
        p1 = p1 * alpha / (k_h + 1)
    return e


def expression_error_alg2(alpha: float, beta: float, m: int, K: int) -> float:
    """Paper Algorithm 2: O(m*K) via incremental e1'(k_h)/e2'(k_h) updates.

    e1'(k_h) = 2*C_beta((m-1)k_h) - C_beta((m-1)K) and
    e2'(k_h) = 2*D_beta((m-1)k_h) - D_beta((m-1)K), maintained by adding the
    newly-covered (m-1) pmf terms per k_h step (Eq. 19); here C/D are the
    Poisson(beta) cdf and partial mean. E_e = ((m-1)*e1 - e2)/m.
    """
    if m == 1:
        return 0.0
    k_top = (m - 1) * K
    # initialise e1' and e2' at k_h = 0: 2*C(0) - C(k_top), 2*D(0) - D(k_top)
    p2 = math.exp(-beta)
    c_full = 0.0
    d_full = 0.0
    pmf = p2
    for k_m in range(0, k_top + 1):
        c_full += pmf
        d_full += k_m * pmf
        pmf = pmf * beta / (k_m + 1)
    e1p = 2.0 * p2 - c_full  # C(0) = pmf(0)
    e2p = 0.0 - d_full  # D(0) = 0
    e1 = 0.0  # the k_h = 0 term of e1 has factor k_h = 0
    p1 = math.exp(-alpha)
    e2 = p1 * e2p  # k_h = 0 term of e2
    # running pmf(beta, k) cursor positioned at k = 1
    cursor = p2 * beta  # pmf(beta, 1)
    cursor_k = 1
    for k_h in range(1, K + 1):
        # extend the doubled prefix from (m-1)(k_h-1) to (m-1)k_h
        for k_m in range(cursor_k, (m - 1) * k_h + 1):
            e1p += 2.0 * cursor
            e2p += 2.0 * k_m * cursor
            cursor = cursor * beta / (k_m + 1)
        cursor_k = (m - 1) * k_h + 1
        p1 = p1 * alpha / k_h
        e1 += k_h * p1 * e1p
        e2 += p1 * e2p
    return ((m - 1) * e1 - e2) / m


# ---------------------------------------------------------------------------
# batched kernel and its drivers (the production path)
# ---------------------------------------------------------------------------

#: window cells (a class of beta windows, or a chunk of alpha points)
#: evaluated at once, so the kernel's scratch memory stays a few MB whatever
#: the lattice
_BLOCK_CELLS = 1 << 17

#: log k! for k below its size, exact; Stirling's series above
_LOG_FACT = np.array([math.lgamma(k + 1) for k in range(4096)])


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! of non-negative integers (Stirling's series error < 1e-25
    where it is used)."""
    if k.max(initial=0) < _LOG_FACT.size:
        return _LOG_FACT[k]
    z = np.maximum(k, _LOG_FACT.size) + 1.0
    stirling = (
        (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi)
        + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z
    )
    return np.where(k < _LOG_FACT.size, _LOG_FACT[np.minimum(k, _LOG_FACT.size - 1)], stirling)


def _window_bounds(lam: np.ndarray, k_max: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each Poisson(lam) window: lam +- _WINDOW_SIGMA*sqrt(lam)
    + 10, clipped to [0, k_max]; hi < lo when it lies wholly beyond k_max.
    Poisson(0) is the point mass at 0."""
    half = _WINDOW_SIGMA * np.sqrt(lam) + 10.0
    lo = np.maximum(0, (lam - half).astype(np.int64))
    hi = np.where(lam > 0, np.minimum(k_max, (lam + half).astype(np.int64) + 1), 0)
    return lo, hi


def _log_pois_window(lam, lo, j) -> tuple[np.ndarray, np.ndarray]:
    """(k, pmf): the Poisson(lam) pmf at the window points k = lo + j, with
    ``lam``, ``lo`` and ``j`` broadcast together. Computed in log space, so
    it is stable for arbitrarily large lam; a Poisson(0) window holds only
    k = 0. Flat points look log k! up one by one; in 2-D rows of
    consecutive points (one padded window per row) it is the row's first
    log k! plus a running sum of log k."""
    k = lo + j
    if k.ndim == 2:
        log_fact = np.empty(k.shape)
        log_fact[:, 0] = _log_factorial(k[:, 0])
        np.cumsum(np.log(k[:, 1:]), axis=1, out=log_fact[:, 1:])
        log_fact[:, 1:] += log_fact[:, :1]
    else:
        log_fact = _log_factorial(k)
    log_lam = np.log(np.where(lam > 0, lam, 1.0))
    return k, np.exp(k * log_lam - lam - log_fact)


def _auto_K(alpha: np.ndarray) -> np.ndarray:
    """Smallest K covering Poisson(alpha)'s mass with a wide safety margin."""
    return (alpha + _WINDOW_SIGMA * np.sqrt(alpha)).astype(np.int64) + 12


def _flat(width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, j) of every point when row r holds ``width[r]`` points 0..w-1."""
    row = np.repeat(np.arange(width.size), width)
    return row, np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)


def _classes(width: np.ndarray):
    """(rows, W) per width class: a slice of consecutive rows whose widths
    (running max) stay below twice the class's first, padded to the
    class's widest W, with at most _BLOCK_CELLS cells (or one row)."""
    top = np.maximum.accumulate(width)
    start = 0
    while start < width.size:
        stop = int(np.searchsorted(top, 2 * top[start]))
        stop = min(stop, start + max(1, _BLOCK_CELLS // int(top[stop - 1])))
        yield slice(start, stop), int(top[stop - 1])
        start = stop


def _checked(alphas, K: int | None) -> np.ndarray:
    """``alphas`` as float64, rejecting input outside the kernel's domain."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.isnan(alphas).any():
        raise ValueError("alphas contain NaN")
    if np.isinf(alphas).any():
        raise ValueError("alphas contain an infinite value")
    if (alphas < 0).any():
        raise ValueError("alphas contain a negative value (Poisson means are >= 0)")
    if K is not None and K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    return alphas


def expression_errors(
    alphas: np.ndarray, mgrid_of_cell: np.ndarray, m: int, K: int | None
) -> np.ndarray:
    """E_e of every HGrid of one slot, by the batched kernel.

    ``alphas`` holds one per-HGrid mean (zeros included; NaN, infinite or
    negative values raise ``ValueError``) and ``mgrid_of_cell`` its MGrid
    id, in any order; every MGrid must have its m HGrids. For HGrid j,
    beta_j is its MGrid's total minus alpha_j.

    ``K = None`` picks the per-HGrid auto-K (Theorem III.2 guarantees
    convergence in K; auto-K covers the Poisson mass, so the truncation
    error is negligible). An explicit ``K >= 0`` truncates exactly as Eq. 7
    does — k_h <= K and k_m <= (m-1)K — so the result is
    :func:`expression_error_direct` at that K; a Poisson window lying
    wholly beyond its truncation contributes 0.

    Equal (alpha, beta) pairs share one evaluation, and the distinct pairs
    are sorted by beta. Each distinct beta window is built once (with
    K = None its auto-K cap lies past the window, so the window depends on
    beta alone), in classes of similar width; C_beta and D_beta are their
    running sums. The pairs' alpha windows are laid out flat, with no
    padding: every point k_h reads C_beta and D_beta at q = (m-1)*k_h from
    its pair's class, and e1/e2 are summed per pair (Algorithm 2).
    """
    alphas = _checked(alphas, K)
    mgrid_of_cell = np.asarray(mgrid_of_cell)
    if alphas.ndim != 1 or alphas.shape != mgrid_of_cell.shape:
        raise ValueError(
            f"got {alphas.size} alphas but {mgrid_of_cell.size} MGrid ids (1-D, one per"
            f" HGrid; shapes {alphas.shape} and {mgrid_of_cell.shape})"
        )
    _, mg, sizes = np.unique(mgrid_of_cell, return_inverse=True, return_counts=True)
    if (sizes != m).any():
        raise ValueError(f"every MGrid must have m={m} HGrids")
    if m == 1:
        return np.zeros(alphas.size)  # the HGrid is its MGrid
    betas = np.bincount(mg, alphas)[mg] - alphas
    order = np.lexsort((alphas, betas))
    beta, alpha = betas[order], alphas[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (beta[1:] != beta[:-1]) | (alpha[1:] != alpha[:-1])
    pair = np.empty(order.size, dtype=np.int64)
    pair[order] = np.cumsum(first) - 1
    beta, alpha = beta[first], alpha[first]
    # the distinct betas, each one's first pair, and each pair's beta
    lam, first_pair, row = np.unique(beta, return_index=True, return_inverse=True)
    first_pair = np.append(first_pair, beta.size)
    lo_b, hi_b = _window_bounds(lam, _auto_K(lam) if K is None else (m - 1) * K)
    lo_a, hi_a = _window_bounds(alpha, _auto_K(alpha) if K is None else K)
    w_b = hi_b - lo_b + 1  # <= 0 for a window wholly beyond (m-1)K
    w_a = np.maximum(hi_a - lo_a + 1, 0)
    a_end = np.cumsum(w_a)
    e = np.zeros((2, alpha.size))  # e1, e2 per pair
    for rows, W in _classes(np.maximum(w_b, 1)):
        j = np.arange(W)
        k_b, pmf_b = _log_pois_window(lam[rows, None], lo_b[rows, None], j)
        pmf_b *= j < w_b[rows, None]
        # C_beta and D_beta, the cdf and partial mean, at column q - lo + 1
        # of each window row: column 0 is q < lo, and the zero padding
        # makes the last column the window total
        cum = np.zeros((2, pmf_b.shape[0], W + 1))
        np.multiply(k_b, pmf_b, out=cum[1, :, 1:])
        cum[0, :, 1:] = pmf_b
        np.cumsum(cum[:, :, 1:], axis=2, out=cum[:, :, 1:])
        c, d = cum.reshape(2, -1)
        c_tot, d_tot = cum[:, :, -1]
        p, stop = int(first_pair[rows.start]), int(first_pair[rows.stop])
        while p < stop:
            # the class's alpha points, at most _BLOCK_CELLS at a time
            nxt = int(np.searchsorted(a_end, a_end[p] - w_a[p] + _BLOCK_CELLS, side="right"))
            nxt = min(stop, max(p + 1, nxt))
            seg, off = _flat(w_a[p:nxt])
            at = seg + p
            k_h, pmf_a = _log_pois_window(alpha[at], lo_a[at], off)
            r = row[at] - rows.start
            at_q = r * (W + 1) + np.minimum(np.maximum((m - 1) * k_h - lo_b[row[at]] + 1, 0), W)
            # e1 adds k_h pmf (2C(q) - C), e2 adds pmf (2D(q) - D)
            n = nxt - p
            e[0, p:nxt] = np.bincount(seg, k_h * pmf_a * (2.0 * c[at_q] - c_tot[r]), minlength=n)
            e[1, p:nxt] = np.bincount(seg, pmf_a * (2.0 * d[at_q] - d_tot[r]), minlength=n)
            p = nxt
    return (((m - 1) * e[0] - e[1]) / m)[pair]


def total_expression_error_local(
    alphas: np.ndarray, mgrid_of_cell: np.ndarray, m: int, K: int | None = None
) -> float:
    """sum_ij E_e(i,j) over all HGrids of one slot (the quantity
    Algorithm 3 adds up): :func:`expression_errors` summed."""
    return float(expression_errors(alphas, mgrid_of_cell, m, K).sum())
