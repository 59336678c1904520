"""Search helpers over arrays of independent problems, advanced in lockstep:
bracketing a level out to the edge of a function's domain, safeguarded root
finding and golden-section maxima.

Each helper takes ``fun(x, which)``, which evaluates the problems with
indices ``which`` at the points ``x``.  Only problems still active in an
iteration are evaluated, so one call per iteration serves every problem.
Per element, the arithmetic is that of the scalar textbook method; a single
problem is a one-element array.  A problem that fails is reported by a fault
code and dropped, so it never stops the others.

:func:`bracket_level` is the one walk out to a level, shared by the contour
rays and the misfit perturbation search; its domain-edge bisection runs all
its steps on every problem that needs it.

:func:`golden_max` looks ahead: each call of its ``fun`` also evaluates
every point the next two steps can reach, so one call commits up to three
golden-section steps per problem, at exactly the points the step-by-step
search visits.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD = 3  # golden-section steps committed per call of the objective

# fault codes; where several meet, the larger stands for them all
ABOVE_TOL = 1  # the best point's residual is above the root tolerance
UNDEFINED = 2  # the function returned NaN inside the bracket


def bracketed_root(g, lo, hi, g_lo, g_hi, *, f_tol, max_iter=200):
    """Solve g(x) = 0 on each [lo, hi] given g(lo) <= 0 <= g(hi).

    Secant proposals accelerate a maintained bisection bracket; any proposal
    that leaves the bracket (or repeats) falls back to the midpoint.  Returns
    ``(root, fault)``: per element the first x with |g(x)| <= f_tol and fault
    0; or NaN with fault :data:`UNDEFINED` where g returned NaN (the element
    stops there), or with :data:`ABOVE_TOL` where no point met the tolerance
    before the bracket collapsed or ``max_iter`` iterations passed.
    """
    a, b, ga, gb = (np.array(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    if np.any(ga > 0.0) or np.any(gb < 0.0):
        raise ValueError("bracket does not straddle the root")
    root = np.where(np.abs(ga) <= f_tol, a, np.where(np.abs(gb) <= f_tol, b, np.nan))
    fault = np.zeros(len(root), dtype=int)
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
            undefined = np.isnan(gx)
            fault[i[undefined]] = UNDEFINED
            hit = np.abs(gx) <= f_tol
            root[i[hit]] = x[hit]
            below = gx < 0.0
            a, b = np.where(below, x, a), np.where(below, b, x)
            x0, gx0, x1, gx1 = x1, gx1, x, gx
            collapsed = b - a <= 1e-16 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            keep = ~hit & ~collapsed & ~undefined
            i, a, b, x0, gx0, x1, gx1 = (v[keep] for v in (i, a, b, x0, gx0, x1, gx1))
    fault[np.isnan(root) & (fault == 0)] = ABOVE_TOL
    return root, fault


def _golden_step(a, b, c, d, left):
    """One golden-section step on each bracket [a, b] with interior points
    c < d: keep [a, d] where ``left`` (f(c) >= f(d)), else [c, b].  Returns
    the new bracket, its interior points and the one new point among them."""
    a, b = np.where(left, a, c), np.where(left, d, b)
    x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
    return a, b, np.where(left, x, d), np.where(left, c, x), x


def golden_max(f, a, b, *, x_tol, max_iter=200):
    """Golden-section maximization of f on each [a, b].

    Assumes f is unimodal on each bracket (the use here is a local refinement
    around a grid argmax).  ``f(x, which)`` returns ``(values, fault)``: the
    values, -inf marking an unevaluable point, and an integer fault code per
    point, 0 where it evaluated.  Returns arrays ``(x_best, f_best, fault)``:
    the best of every point the search committed, so a result can never be
    worse than its bracket interior, and fault 0.  A nonzero code at a
    committed point ends the search at that step; ``fault`` then holds, per
    bracket, the largest code among its points of that step.

    The first call evaluates both interior points of every bracket.  After
    that, each call evaluates per open bracket the next point x_t, both
    points x_{t+1} can be (one per outcome of the f(c) >= f(d) test) and the
    four points x_{t+2} can be, then commits up to three steps along the
    branch the values select.  The committed points, their arithmetic and
    the result are those of the step-by-step search; the values and faults
    of the points off that branch are discarded.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n = len(a)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    values, codes = f(np.concatenate([c, d]), np.tile(np.arange(n), 2))
    values, codes = np.asarray(values, dtype=float), np.asarray(codes)
    fc, fd = values[:n], values[n:]
    fault = np.maximum(codes[:n], codes[n:])
    left = fc >= fd
    best_x = np.where(left, c, d)
    best_f = np.where(left, fc, fd)
    done = 0
    while done < max_iter and not fault.any():
        i = np.flatnonzero(b - a > x_tol)
        if not i.size:
            break
        depth = min(_LOOKAHEAD, max_iter - done)
        # the state after each step along every branch: level s holds 2**s
        # rows, row p's children being rows 2p (left) and 2p + 1 (right);
        # the first step's branch is known from fc and fd
        state = tuple(v[i][None, :] for v in (a, b, c, d))
        left = (fc[i] >= fd[i])[None, :]
        points, opens = [], []
        for s in range(depth):
            opens.append(state[1] - state[0] > x_tol)
            *state, x = _golden_step(*state, left)
            points.append(x)
            state = tuple(np.repeat(v, 2, axis=0) for v in state)
            left = (np.arange(len(state[0])) % 2 == 0)[:, None]
        x = np.concatenate([p[o] for p, o in zip(points, opens)])
        values, codes = f(x, i[np.concatenate([np.nonzero(o)[1] for o in opens])])
        values, codes = np.asarray(values, dtype=float), np.asarray(codes)
        # commit along the branch the values select
        path = np.zeros(len(i), dtype=int)
        start = 0
        for s in range(depth):
            stepping = b[i] - a[i] > x_tol
            left = fc[i] >= fd[i]
            if s:
                path = 2 * path + ~left
            j, left, p = i[stepping], left[stepping], path[stepping]
            # row p, column of this level's points -> index into values
            at = np.full(opens[s].shape, -1)
            at[opens[s]] = start + np.arange(np.count_nonzero(opens[s]))
            start += np.count_nonzero(opens[s])
            k = at[p, np.flatnonzero(stepping)]
            fault[j] = codes[k]
            if fault.any():
                break
            fx = values[k]
            a[j], b[j], c[j], d[j], x = _golden_step(a[j], b[j], c[j], d[j], left)
            fc[j], fd[j] = np.where(left, fx, fd[j]), np.where(left, fc[j], fx)
            better = fx > best_f[j]
            best_x[j[better]] = x[better]
            best_f[j[better]] = fx[better]
        done += depth
    return best_x, best_f, fault


def bracket_level(g, lo, hi, g_lo, *, doublings, edge_iters):
    """Bracket the level g(x) = 0 above each lo, given g(lo) = g_lo < 0,
    where g returns NaN past the edge of its domain.

    Doubles each hi until g(hi) >= 0, moving lo up to every hi with
    g(hi) < 0, for at most ``doublings`` evaluations.  Where g(hi) is NaN,
    bisects [lo, hi] toward the domain edge for ``edge_iters`` steps and
    takes the largest point that evaluated as hi (lo when none did).
    Returns ``(lo, hi, g_lo, g_hi, escaped)``: where ``escaped`` is false,
    g_lo < 0 <= g_hi, ready for :func:`bracketed_root`; where it is true,
    the level lies beyond the domain edge (g_hi finite, below 0) or was not
    reached in ``doublings`` doublings (g_hi NaN).
    """
    lo, hi, g_lo = (np.array(v, dtype=float) for v in (lo, hi, g_lo))
    g_hi = np.full(len(lo), np.nan)
    climbing = np.arange(len(lo))
    for _ in range(doublings):
        g_x = np.asarray(g(hi[climbing], climbing), dtype=float)
        g_hi[climbing[g_x >= 0]] = g_x[g_x >= 0]
        climbing, g_x = climbing[g_x < 0], g_x[g_x < 0]
        lo[climbing], g_lo[climbing] = hi[climbing], g_x
        hi[climbing] *= 2.0
        if not climbing.size:
            break
    escaped = np.isin(np.arange(len(lo)), climbing)

    edge = np.flatnonzero(np.isnan(g_hi) & ~escaped)
    good, bad, g_good = lo[edge], hi[edge], g_lo[edge]
    for _ in range(edge_iters if edge.size else 0):
        mid = 0.5 * (good + bad)
        g_mid = np.asarray(g(mid, edge), dtype=float)
        ok = ~np.isnan(g_mid)
        good, g_good = np.where(ok, mid, good), np.where(ok, g_mid, g_good)
        bad = np.where(ok, bad, mid)
    hi[edge], g_hi[edge] = good, g_good
    escaped[edge] = g_good < 0
    return lo, hi, g_lo, g_hi, escaped
