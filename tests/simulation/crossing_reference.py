"""The binary wavefront crossing search, kept as the parity reference.

This is ``repro.simulation.kernel._lipschitz_first_crossing`` as it was
before the kernel gained its Python-float narrow tail: one numpy pass
per dyadic level, whatever the number of live intervals.  The shipped
search must visit exactly the nodes this one visits, so the tests compare
its crossing times and per-problem evaluation counts for equality, not
within a tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

GapFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


def reference_lipschitz_first_crossing(
    gap_fn: GapFunction,
    lo: np.ndarray,
    hi: np.ndarray,
    lipschitz: np.ndarray,
    threshold: np.ndarray,
    time_tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched leftmost branch-and-bound over ``n`` independent problems.

    ``gap_fn(problems, times)`` evaluates problem-specific gap functions
    at the given times.  Explores the same dyadic subdivision tree with
    the same tent-bound pruning as the scalar
    :func:`~repro.simulation.closest_approach.find_first_crossing`, so the
    earliest evaluated crossing point per problem coincides with the
    scalar result (intervals to the right of a found crossing are pruned
    early, which only skips work past the answer).

    Returns ``(crossing times with NaN where none, per-problem gap
    evaluation counts)``.
    """
    n = int(lo.shape[0])
    best = np.full(n, np.nan)
    counts = np.full(n, 2, dtype=np.int64)
    problems = np.arange(n)

    g_lo = gap_fn(problems, lo)
    g_hi = gap_fn(problems, hi)
    np.fmin.at(best, problems[g_lo <= threshold], lo[g_lo <= threshold])
    np.fmin.at(best, problems[g_hi <= threshold], hi[g_hi <= threshold])

    def _prune(
        p: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        gl: np.ndarray,
        gr: np.ndarray,
        thr: np.ndarray,
        lip: np.ndarray,
    ) -> np.ndarray:
        width = right - left
        tent = 0.5 * (gl + gr - lip * width)
        lower = np.minimum(np.minimum(gl, gr), tent)
        alive = (width > time_tolerance) & (lower <= thr)
        # An interval entirely at or right of the best known crossing
        # cannot contain an earlier one (NaN best compares False: kept).
        alive &= ~(left >= best[p])
        return alive

    thr = threshold
    lip = lipschitz
    keep = _prune(problems, lo, hi, g_lo, g_hi, thr, lip)
    p, left, right = problems[keep], lo[keep], hi[keep]
    gl, gr, thr, lip = g_lo[keep], g_hi[keep], thr[keep], lip[keep]

    # Binary bisection wavefront: every pass halves all live intervals at
    # once, exploring exactly the scalar detector's dyadic tree with the
    # same tent-bound pruning, so the earliest recorded crossing lands in
    # ``[t*, t* + time_tolerance]`` just like the scalar result.  The
    # per-interval thresholds and Lipschitz constants ride along to avoid
    # re-gathering them every pass.
    concat = np.concatenate
    while p.size:
        mid = 0.5 * (left + right)
        g_mid = gap_fn(p, mid)
        np.add.at(counts, p, 1)
        crossed = g_mid <= thr
        np.fmin.at(best, p[crossed], mid[crossed])

        child_p = concat([p, p])
        child_l = concat([left, mid])
        child_r = concat([mid, right])
        child_gl = concat([gl, g_mid])
        child_gr = concat([g_mid, gr])
        child_thr = concat([thr, thr])
        child_lip = concat([lip, lip])
        alive = _prune(child_p, child_l, child_r, child_gl, child_gr, child_thr, child_lip)
        p, left, right = child_p[alive], child_l[alive], child_r[alive]
        gl, gr = child_gl[alive], child_gr[alive]
        thr, lip = child_thr[alive], child_lip[alive]
    return best, counts
