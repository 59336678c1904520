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

:func:`golden_max` evaluates a predicted path of golden-section steps per
call of its ``fun``, the branches chosen by a parabola through the best
known points (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 5), and commits exactly the step-by-step search's
points; its docstring says how.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD = 12  # golden-section steps evaluated per open bracket per call of f

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
    a, b, ga, gb = (np.asarray(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    if (ga > 0.0).any() or (gb < 0.0).any():
        raise ValueError("bracket does not straddle the root")
    root = np.where(np.abs(ga) <= f_tol, a, np.where(np.abs(gb) <= f_tol, b, np.nan))
    fault = np.zeros(len(root), dtype=int)
    # the open problems' indices and rows a, b, x0, g(x0), x1, g(x1)
    i = np.flatnonzero(np.isnan(root))
    state = np.array([a, b, a, ga, b, gb])[:, i]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if not i.size:
                break
            a, b, x1, gx1 = state[0], state[1], state[4], state[5]
            # a zero or non-finite dg gives a non-finite secant or x1, an end
            dx, dg = state[4:] - state[2:4]
            x, secant = 0.5 * (a + b), x1 - gx1 * dx / dg
            np.copyto(x, secant, where=(a < secant) & (secant < b))
            gx = np.asarray(g(x, i), dtype=float)
            np.copyto(a, x, where=gx < 0.0)
            np.copyto(b, x, where=gx >= 0.0)  # a NaN stops its problem: b is moot
            state[2:] = x1, gx1, x, gx
            # max(|a|, |b|) is max(b, -a) where a <= b; a > b collapses anyway
            going = (np.abs(gx) > f_tol) & ~(b - a <= 1e-16 * np.maximum(1.0, np.maximum(b, -a)))
            if np.count_nonzero(going) < len(going):
                fault[i[np.isnan(gx)]] = UNDEFINED
                hit = np.abs(gx) <= f_tol
                root[i[hit]] = x[hit]
                i, state = i.compress(going), state.compress(going, axis=1)
    fault[np.isnan(root) & (fault == 0)] = ABOVE_TOL
    return root, fault


def _golden_step(a, b, c, d, left):
    """One golden-section step on the bracket [a, b] with interior points
    c < d: keep [a, d] where ``left`` (f(c) >= f(d)), else [c, b].  Returns
    the new bracket, its interior points and the one new point among them."""
    if left:
        x = d - _INVPHI * (d - a)
        return a, d, x, c, x
    x = c + _INVPHI * (b - c)
    return c, b, d, x, x


def _vertex(points, a, b):
    """The predicted argmax on [a, b]: the vertex of the parabola through
    the three best points ``(x, f)`` with finite x and f, in Brent's form;
    the best point where that vertex is not finite or the parabola is not
    concave, the midpoint where no point is finite."""
    finite = sorted((p for p in points if math.isfinite(p[0]) and math.isfinite(p[1])),
                    key=lambda p: -p[1])
    if len(finite) < 3:
        return finite[0][0] if finite else 0.5 * (a + b)
    (x, fx), (w, fw), (v, fv) = finite[:3]
    r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
    p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
    # the parabola's curvature has the sign of q / ((w - x)(v - x)(w - v))
    if q * (w - x) * (v - x) * (w - v) < 0.0 and math.isfinite(x - p / q):
        return x - p / q
    return x


def _path(a, b, c, d, left, vertex, steps, x_tol):
    """Up to ``steps`` golden steps from the bracket [a, b] with interior
    points c < d, while the bracket is wider than ``x_tol``: the first along
    ``left``, each later one along the branch of a concave parabola peaking
    at ``vertex``, f(c) >= f(d) where |c - vertex| <= |d - vertex|.  Returns
    ``(left, step)`` per step, ``step`` as :func:`_golden_step` returns it."""
    path = []
    while len(path) < steps and b - a > x_tol:
        a, b, c, d, x = step = _golden_step(a, b, c, d, left)
        path.append((left, step))
        left = abs(c - vertex) <= abs(d - vertex)
    return path


def golden_max(f, a, b, *, x_tol, max_iter=200, known=None):
    """Golden-section maximization of f on each [a, b].

    Assumes f is unimodal on each bracket (the use here is a local refinement
    around a grid argmax).  ``f(x, which)`` returns ``(values, fault)``: the
    values, -inf marking an unevaluable point, and an integer fault code per
    point, 0 where it evaluated.  Returns arrays ``(x_best, f_best, fault)``:
    the best of every point the search committed, so a result can never be
    worse than its bracket interior, and fault 0.  A nonzero code at a
    committed point ends the search at that step; ``fault`` then holds, per
    bracket, the largest code among its points of that step.

    The search evaluates a predicted path.  The first call evaluates both
    interior points of every bracket.  Each call then evaluates, per open
    bracket, up to :data:`_LOOKAHEAD` steps: the next one, along the branch
    the f(c) >= f(d) test decides, and each later one along the branch that
    the vertex of a parabola through the bracket's three best known points
    predicts (:func:`_vertex`); the first call predicts its first step too.
    The known points are the committed ones and ``known``, an optional pair
    ``(x, f)`` of ``(n, m)`` arrays of prior points per bracket, such as a
    caller's grid values.  The search then commits steps along the branches
    the values select, up to the first mispredicted step, so brackets may
    commit different numbers of steps per call.  A fault committed at step t
    ends every bracket at step t: brackets short of it run up to it, and
    brackets past it drop their later steps.  The committed points, their
    arithmetic and the result are those of the step-by-step search, whatever
    the predictions; the values and faults of the points it does not commit
    are discarded.  Brackets and paths are Python floats: their + - * are
    numpy's IEEE double operations, without its cost per call.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n = len(a)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    state = np.stack([a, b, c, d], axis=1).tolist()  # a, b, c, d, then f(c), f(d)
    seen = [[] for _ in range(n)]  # the known points per bracket
    if known is not None:
        kx, kf = np.asarray(known, dtype=float).tolist()
        seen = [list(zip(xs, fs)) for xs, fs in zip(kx, kf)]
    taken = [[] for _ in range(n)]  # the committed steps' points
    # the first step with a committed fault (none: max_iter + 1) and per
    # bracket its faulted step and code
    stop, faults = max_iter + 1, [(0, 0)] * n
    first = True
    while True:
        limit = min(max_iter, stop)
        i = [j for j, s in enumerate(state)
             if len(taken[j]) < limit and not faults[j][1] and s[1] - s[0] > x_tol]
        if not (first or i):
            break
        paths = {}
        for j in i:
            sa, sb, sc, sd = state[j][:4]
            vertex = _vertex(seen[j], sa, sb)
            left = abs(sc - vertex) <= abs(sd - vertex) if first else state[j][4] >= state[j][5]
            steps = min(_LOOKAHEAD, limit - len(taken[j]))
            paths[j] = _path(sa, sb, sc, sd, left, vertex, steps, x_tol)
        xs, which = ([*c, *d], [*range(n)] * 2) if first else ([], [])
        for j, path in paths.items():
            xs += [step[4] for _, step in path]
            which += [j] * len(path)
        values, codes = f(np.array(xs, dtype=float), np.array(which, dtype=int))
        values, codes = np.asarray(values, dtype=float).tolist(), np.asarray(codes).tolist()
        if first:
            first = False
            for j, s in enumerate(state):
                s += values[j], values[n + j]
                seen[j] += (s[2], s[4]), (s[3], s[5])
            best = [[s[2], s[4]] if s[4] >= s[5] else [s[3], s[5]] for s in state]
            pair = np.maximum(codes[:n], codes[n : 2 * n]).tolist()
            if any(pair):
                stop, faults = 0, [(0, code) for code in pair]
                break
            values, codes = values[2 * n :], codes[2 * n :]
        results = zip(values, codes)
        for j, path in paths.items():
            s = state[j]
            for (left, (sa, sb, sc, sd, x)), (fx, code) in zip(path, [*islice(results, len(path))]):
                if (s[4] >= s[5]) != left:
                    break
                if code:
                    faults[j] = len(taken[j]) + 1, code
                    stop = min(stop, faults[j][0])
                    break
                s[:] = sa, sb, sc, sd, *((fx, s[4]) if left else (s[5], fx))
                seen[j].append((x, fx))
                taken[j].append((x, fx))
    for j in range(n):
        for x, fx in taken[j][: max(stop - 1, 0)]:
            if fx > best[j][1]:
                best[j] = [x, fx]
    x_best, f_best = np.array(best, dtype=float).reshape(n, 2).T
    return x_best, f_best, np.array([code if t == stop else 0 for t, code in faults], dtype=int)


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
    g_hi, climbing = np.full(len(lo), np.nan), np.arange(len(lo))
    for _ in range(doublings):
        x = hi.take(climbing)
        g_x = np.asarray(g(x, climbing), dtype=float)
        reached, below = g_x >= 0, g_x < 0
        g_hi[climbing.compress(reached)] = g_x.compress(reached)
        climbing, x, g_x = climbing.compress(below), x.compress(below), g_x.compress(below)
        if not climbing.size:
            break
        lo[climbing], g_lo[climbing], hi[climbing] = x, g_x, 2.0 * x
    escaped = np.bincount(climbing, minlength=len(lo)) > 0

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
