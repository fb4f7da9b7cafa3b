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
* :func:`total_expression_error_local` — the production driver: one
  batched, log-space-stable, windowed kernel (same math as Algorithm 2,
  safe for large beta) over every HGrid of one slot's alpha row at once
  (a row of the table binned by :mod:`repro.core.alpha`);
* :func:`expression_error_fast` — the same kernel on one MGrid's HGrids.

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

#: padded window cells (alpha and beta windows together) evaluated in one
#: block, so the kernel's scratch memory stays a few MB whatever the lattice
_BLOCK_CELLS = 1 << 17

#: log k! for k below its size, exact; Stirling's series above
_LOG_FACT = np.array([math.lgamma(k + 1) for k in range(4096)])


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! of non-negative integers (Stirling's series error < 1e-25
    where it is used)."""
    z = np.maximum(k, _LOG_FACT.size) + 1.0
    stirling = (
        (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi)
        + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z
    )
    return np.where(k < _LOG_FACT.size, _LOG_FACT[np.minimum(k, _LOG_FACT.size - 1)], stirling)


def _window_bounds(lam: np.ndarray, k_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each Poisson(lam) window: lam +- _WINDOW_SIGMA*sqrt(lam)
    + 10, clipped to [0, k_max]; hi < lo when it lies wholly beyond k_max.
    Poisson(0) is the point mass at 0."""
    half = _WINDOW_SIGMA * np.sqrt(lam) + 10.0
    lo = np.maximum(0, (lam - half).astype(np.int64))
    hi = np.where(lam > 0, np.minimum(k_max, (lam + half).astype(np.int64) + 1), 0)
    return lo, hi


def _log_pois_window(lam: np.ndarray, k_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, pmf): row r of pmf holds the Poisson(lam[r]) pmf at lo[r] + 0..W-1
    on its :func:`_window_bounds` window, zero-padded to the widest row (all
    zero when the window is empty). Computed in log space, so it is stable
    for arbitrarily large lam."""
    lo, hi = _window_bounds(lam, k_max)
    width = hi - lo + 1
    j = np.arange(max(int(width.max(initial=0)), 1))
    k = lo[:, None] + j
    # log k! = log(lo!) + cumsum of log k within the window
    log_fact = np.zeros(k.shape)
    np.cumsum(np.log(k[:, 1:]), axis=1, out=log_fact[:, 1:])
    log_fact += _log_factorial(lo)[:, None]
    log_lam = np.log(np.where(lam > 0, lam, 1.0))  # lam = 0 keeps only k = 0
    log_pmf = k * log_lam[:, None] - lam[:, None] - log_fact
    return lo, np.where(j < width[:, None], np.exp(log_pmf), 0.0)


def _auto_K(alpha: np.ndarray) -> np.ndarray:
    """Smallest K covering Poisson(alpha)'s mass with a wide safety margin."""
    return (alpha + _WINDOW_SIGMA * np.sqrt(alpha)).astype(np.int64) + 12


def _block(alpha: np.ndarray, beta: np.ndarray, k_cap: np.ndarray, m: int) -> np.ndarray:
    """E_e of each (alpha, beta) row truncated at k_h <= k_cap,
    k_m <= (m-1)*k_cap: Algorithm 2's e1/e2 with C_beta and D_beta read
    off windowed cumsums at q = (m-1)*k_h."""
    lo_a, pmf_a = _log_pois_window(alpha, k_cap)
    lo_b, pmf_b = _log_pois_window(beta, (m - 1) * k_cap)
    k_b = lo_b[:, None] + np.arange(pmf_b.shape[1])
    # cdf and partial mean of Poisson(beta); the zero padding past each
    # window makes the last column the row's window total
    cum = np.cumsum(np.stack([pmf_b, k_b * pmf_b]), axis=2)
    k_h = lo_a[:, None] + np.arange(pmf_a.shape[1])
    idx = (m - 1) * k_h - lo_b[:, None]
    at_q = np.take_along_axis(cum, np.clip(idx, 0, pmf_b.shape[1] - 1)[None], axis=2)
    dev = 2.0 * np.where(idx < 0, 0.0, at_q) - cum[:, :, -1:]  # 2C(q) - C, 2D(q) - D
    e1 = (k_h * pmf_a * dev[0]).sum(axis=1)
    e2 = (pmf_a * dev[1]).sum(axis=1)
    return ((m - 1) * e1 - e2) / m


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


def _expression_errors(
    alphas: np.ndarray, mgrid_of_cell: np.ndarray, m: int, K: int | None
) -> np.ndarray:
    """E_e of every HGrid, for checked 1-D ``alphas`` and their MGrid ids.

    beta_j is its MGrid's total minus alpha_j. Equal (alpha, beta) pairs
    share one evaluation; the distinct pairs, sorted by beta so that
    neighbours have similar window widths, are evaluated in blocks of at
    most _BLOCK_CELLS padded cells (one wider row is a block of its own).
    """
    _, mg, sizes = np.unique(mgrid_of_cell, return_inverse=True, return_counts=True)
    if (sizes != m).any():
        raise ValueError(f"every MGrid must have m={m} HGrids")
    if m == 1:
        return np.zeros(alphas.size)  # the HGrid is its MGrid
    betas = np.bincount(mg, alphas)[mg] - alphas
    pairs, inv = np.unique(np.stack([betas, alphas], axis=1), axis=0, return_inverse=True)
    beta, alpha = pairs[:, 0], pairs[:, 1]
    if K is None:
        # k_h must cover alpha's mass AND (m-1)*K must cover beta's mass
        k_cap = np.maximum(_auto_K(alpha), -(-_auto_K(beta) // (m - 1)))
    else:
        k_cap = np.full(alpha.size, K, dtype=np.int64)
    lo_a, hi_a = _window_bounds(alpha, k_cap)
    lo_b, hi_b = _window_bounds(beta, (m - 1) * k_cap)
    w_a = np.maximum(hi_a - lo_a + 1, 1)
    w_b = np.maximum(hi_b - lo_b + 1, 1)
    ee = np.empty(alpha.size)
    start = 0
    while start < alpha.size:
        # the widest windows among the rows a block could hold bound its rows
        span = slice(start, start + _BLOCK_CELLS // int(w_a[start] + w_b[start]) + 1)
        stop = start + max(1, _BLOCK_CELLS // int(w_a[span].max() + w_b[span].max()))
        rows = slice(start, stop)
        ee[rows] = _block(alpha[rows], beta[rows], k_cap[rows], m)
        start = stop
    return ee[inv.reshape(-1)]


def expression_error_fast(alphas: np.ndarray, m: int, K: int | None) -> np.ndarray:
    """E_e for every HGrid of one MGrid, by the batched kernel.

    ``alphas`` holds the m per-HGrid means (zeros included; NaN, infinite
    or negative values raise ``ValueError``). For HGrid j,
    beta_j = sum(alphas) - alphas[j]. Equal alphas share one evaluation.

    ``K = None`` picks the per-HGrid auto-K (Theorem III.2 guarantees
    convergence in K; auto-K covers the Poisson mass, so the truncation
    error is negligible). An explicit ``K >= 0`` truncates exactly as Eq. 7
    does — k_h <= K and k_m <= (m-1)K — so the result is
    :func:`expression_error_direct` at that K; a Poisson window lying
    wholly beyond its truncation contributes 0.
    """
    alphas = _checked(alphas, K)
    if alphas.ndim != 1:
        raise ValueError("alphas must be 1-D (the m HGrids of one MGrid)")
    if m != alphas.size:
        raise ValueError(f"m={m} but got {alphas.size} alphas")
    return _expression_errors(alphas, np.zeros(m, dtype=np.int64), m, K)


def total_expression_error_local(
    alphas: np.ndarray, mgrid_of_cell: np.ndarray, m: int, K: int | None = None
) -> float:
    """sum_ij E_e(i,j) over all HGrids of one slot (the quantity
    Algorithm 3 adds up).

    ``alphas`` holds one value per HGrid and ``mgrid_of_cell`` its MGrid
    id, in any order; every MGrid must have its m HGrids. The whole slot —
    one row of :func:`repro.core.alpha.alpha_by_hgrid` — goes through the
    batched kernel in a few numpy calls per block, on the driver.
    """
    alphas = _checked(alphas, K)
    mgrid_of_cell = np.asarray(mgrid_of_cell)
    if alphas.ndim != 1 or alphas.shape != mgrid_of_cell.shape:
        raise ValueError(
            f"got {alphas.size} alphas but {mgrid_of_cell.size} MGrid ids (one per HGrid)"
        )
    return float(_expression_errors(alphas, mgrid_of_cell, m, K).sum())
