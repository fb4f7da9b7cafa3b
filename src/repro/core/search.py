"""OGSS search algorithms (paper §IV): Ternary Search (Algorithm 4),
Iterative Method (Algorithm 5), and the Brute-force baseline.

All three take a memoising ``eval_fn(s) -> e(s)`` over the integer side
length ``s = sqrt(n)`` in ``[s_min, s_max]`` (s_max = sqrt(N)); every
distinct ``s`` is evaluated at most once per search, as in the paper where
each evaluation is an expensive Algorithm-3 call.
"""
from dataclasses import dataclass
from math import ceil


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search: the chosen side s (n = s^2), the e-values of
    every point the search evaluated, and the evaluation count."""

    s_opt: int
    evaluated: dict[int, float]

    @property
    def n_opt(self) -> int:
        return self.s_opt**2

    @property
    def calls(self) -> int:
        return len(self.evaluated)


def _memo(eval_fn):
    cache: dict[int, float] = {}

    def e(s: int) -> float:
        if s not in cache:
            cache[s] = float(eval_fn(s))
        return cache[s]

    return e, cache


def brute_force(eval_fn, s_min: int, s_max: int) -> SearchResult:
    """Evaluate every candidate side — the O(sqrt(N)) baseline of §IV."""
    e, cache = _memo(eval_fn)
    best = min(range(s_min, s_max + 1), key=e)
    return SearchResult(best, cache)


def ternary_search(eval_fn, s_min: int, s_max: int) -> SearchResult:
    """Paper Algorithm 4. Each round keeps 2/3 of the interval by comparing
    the two third-points m_l = ceil(r/3 + 2l/3) and m_r = ceil(2r/3 + l/3).

    Deviation from the pseudocode: we loop while ``r - l > 2`` and finish by
    scanning the <=3 survivors. The printed ``r - l > 1`` condition can loop
    forever on integers (at r - l = 2, m_r == r, so the ``r <- m_r`` branch
    makes no progress); the final scan also subsumes the paper's closing
    e(l)-vs-e(r) comparison.
    """
    e, cache = _memo(eval_fn)
    l, r = s_min, s_max
    while r - l > 2:
        m_r = ceil(2 * r / 3 + l / 3)
        m_l = ceil(r / 3 + 2 * l / 3)
        if e(m_l) > e(m_r):
            l = m_l
        else:
            r = m_r
    best = min(range(l, r + 1), key=e)
    return SearchResult(best, cache)


def iterative_method(eval_fn, s_min: int, s_max: int, *, p: int, b: int) -> SearchResult:
    """Paper Algorithm 5: local descent from the prior p (the paper's 16, the
    "2km x 2km ~ 16 x 16" default of existing systems) with search boundary
    b (the paper's 4), probing from the boundary inward (i = b..1) to skip
    monotone stretches fast.

    Deviation from the pseudocode: the printed downhill test
    ``if e(p) < e(p-i): p <- p-i`` moves toward the *worse* point; we use
    ``e(p) > e(p-i)`` (strict descent), which is the only reading under
    which the loop terminates at a local minimum. Probes are clamped to
    [s_min, s_max].
    """
    e, cache = _memo(eval_fn)
    p = min(max(p, s_min), s_max)
    moved = True
    while moved:
        moved = False
        for i in range(b, 0, -1):
            if p + i <= s_max and e(p) > e(p + i):
                p += i
                moved = True
                break
            if p - i >= s_min and e(p) > e(p - i):
                p -= i
                moved = True
                break
    return SearchResult(p, cache)
