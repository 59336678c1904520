"""Search helpers over arrays of independent problems, advanced in lockstep:
safeguarded root finding, golden-section maxima and domain-edge bisection.

Each helper takes ``fun(x, which)``, which evaluates the problems with
indices ``which`` at the points ``x`` and returns an array of values.  Only
problems still active in an iteration are evaluated, so one call per
iteration serves every problem.  Per element, the arithmetic is that of the
scalar textbook method; a single problem is a one-element array.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bracketed_root(g, lo, hi, g_lo, g_hi, *, f_tol, max_iter=200):
    """Solve g(x) = 0 on each [lo, hi] given g(lo) <= 0 <= g(hi).

    Secant proposals accelerate a maintained bisection bracket; any proposal
    that leaves the bracket (or repeats) falls back to the midpoint.  Returns
    per element the first x with |g(x)| <= f_tol, or the best x seen once the
    bracket collapses or ``max_iter`` iterations pass; raises RuntimeError
    when that best point is still above the tolerance.
    """
    a, b, ga, gb = (np.array(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    if np.any(ga > 0.0) or np.any(gb < 0.0):
        raise ValueError("bracket does not straddle the root")
    lo_best = np.abs(ga) < np.abs(gb)
    best_x = np.where(lo_best, a, b)
    best_g = np.where(lo_best, ga, gb)
    root = np.where(np.abs(ga) <= f_tol, a, np.where(np.abs(gb) <= f_tol, b, np.nan))
    # the open problems' indices and states, compacted as problems finish
    i = np.flatnonzero(np.isnan(root))
    a, b, x0, gx0, x1, gx1 = a[i], b[i], a[i], ga[i], b[i], gb[i]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if not i.size:
                break
            mid = 0.5 * (a + b)
            denom = gx1 - gx0
            x = np.where((denom != 0.0) & np.isfinite(denom), x1 - gx1 * (x1 - x0) / denom, mid)
            x = np.where((a < x) & (x < b) & np.isfinite(x), x, mid)
            gx = np.asarray(g(x, i), dtype=float)
            hit = np.abs(gx) <= f_tol
            root[i[hit]] = x[hit]
            better = np.abs(gx) < np.abs(best_g[i])
            best_x[i[better]], best_g[i[better]] = x[better], gx[better]
            below = gx < 0.0
            a, b = np.where(below, x, a), np.where(below, b, x)
            x0, gx0, x1, gx1 = x1, gx1, x, gx
            collapsed = b - a <= 1e-16 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            keep = ~hit & ~collapsed
            i, a, b, x0, gx0, x1, gx1 = (v[keep] for v in (i, a, b, x0, gx0, x1, gx1))
    open_ = np.isnan(root)
    fine = open_ & (np.abs(best_g) <= f_tol)
    root[fine] = best_x[fine]
    failed = np.flatnonzero(open_ & ~fine)
    if failed.size:
        k = failed[0]
        raise RuntimeError(
            f"root residual {abs(best_g[k]):.3e} above tolerance {f_tol:.1e} "
            f"after {max_iter} iterations"
        )
    return root


def golden_max(f, a, b, *, x_tol, max_iter=200):
    """Golden-section maximization of f on each [a, b].

    Assumes f is unimodal on each bracket (the use here is a local refinement
    around a grid argmax).  Returns arrays ``(x_best, f_best)`` over every
    point evaluated, so a result can never be worse than its bracket
    interior.  f may return -inf to mark an unevaluable point.  The first
    step evaluates both interior points of every bracket in one call.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n = len(a)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    both = np.asarray(f(np.concatenate([c, d]), np.tile(np.arange(n), 2)), dtype=float)
    fc, fd = both[:n], both[n:]
    left = fc >= fd
    best_x = np.where(left, c, d)
    best_f = np.where(left, fc, fd)
    for _ in range(max_iter):
        i = np.flatnonzero(b - a > x_tol)
        if not i.size:
            break
        left = fc[i] >= fd[i]
        li, ri = i[left], i[~left]
        b[li], d[li], fd[li] = d[li], c[li], fc[li]
        a[ri], c[ri], fc[ri] = c[ri], d[ri], fd[ri]
        x = np.where(left, b[i] - _INVPHI * (b[i] - a[i]), a[i] + _INVPHI * (b[i] - a[i]))
        fx = np.asarray(f(x, i), dtype=float)
        c[li], fc[li] = x[left], fx[left]
        d[ri], fd[ri] = x[~left], fx[~left]
        better = fx > best_f[i]
        best_x[i[better]] = x[better]
        best_f[i[better]] = fx[better]
    return best_x, best_f


def domain_edge(fun, good, bad, f_good, *, iters):
    """Bisect each [good, bad] toward the edge of fun's domain, where fun
    returns NaN outside it.  Returns ``(x, fun(x))`` at the largest point
    that evaluated; ``f_good`` is the value at ``good``, kept when no
    midpoint evaluates."""
    good, bad, f_good = (np.array(v, dtype=float) for v in (good, bad, f_good))
    every = np.arange(len(good))
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        f_mid = np.asarray(fun(mid, every), dtype=float)
        ok = ~np.isnan(f_mid)
        good = np.where(ok, mid, good)
        f_good = np.where(ok, f_mid, f_good)
        bad = np.where(ok, bad, mid)
    return good, f_good
