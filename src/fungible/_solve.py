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

:func:`golden_max` keeps one cache of evaluated points per bracket and
resumes the step-by-step golden-section search over it; where the replay
meets a point not yet evaluated, it names that point and those of the
following steps along the branches a parabola through the best known points
predicts (R. P. Brent, *Algorithms for Minimization without Derivatives*,
1973, ch. 5), so one call of its ``fun`` serves several steps.  Its result
is the step-by-step search's by construction; its docstring says how.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def _walk(w, cache, max_iter, x_tol):
    """Replay one bracket's step-by-step golden search over ``cache``, which
    maps x to ``(f(x), fault code)``, resuming from ``w`` = ``[t, a, b, c,
    d, f(c), f(d), x_best, f_best, seen]``, the state before step t, and
    leave ``w`` at the step where the replay stops.  Step 0 evaluates the
    interior pair c < d and seeds x_best, f_best; step t >= 1 is the t-th
    golden step; ``seen`` holds the prior points and those of the steps
    taken.  The cache only grows, so a resumed walk is the same walk.

    Returns ``(code, missing)``.  At the bracket's first step with a
    nonzero code the replay ends before taking the step (the pair is
    taken) and stays there: ``code`` is the step's largest code.  At the
    first step whose point the cache lacks, the walk goes on along the
    branches that :func:`_vertex` of ``seen`` predicts, through step
    ``max_iter`` or until the bracket is no wider than ``x_tol``:
    ``missing`` is the points of those steps that the cache lacks, the
    first step's (the pair's) first.  After step ``max_iter``, or once the
    bracket is no wider than ``x_tol``, the search is done: ``(0, [])``.
    """
    t, a, b, c, d, fc, fd, x_best, f_best, seen = w
    code, missing = 0, [] if t else [x for x in (c, d) if x not in cache]
    if not (t or missing):
        (fc, code_c), (fd, code_d) = cache[c], cache[d]
        x_best, f_best = (c, fc) if fc >= fd else (d, fd)
        seen += (c, fc), (d, fd)
        code = max(code_c, code_d)
        t = int(not code)  # the pair is taken even where it faults
    vertex = None
    if missing:  # the pair: predict from step 1
        t, vertex = 1, _vertex(seen, a, b)
    while 0 < t <= max_iter and b - a > x_tol:
        # left: keep [a, d], the new point below c; else keep [c, b], above d
        left = fc >= fd if vertex is None else abs(c - vertex) <= abs(d - vertex)
        x = d - _INVPHI * (d - a) if left else c + _INVPHI * (b - c)
        fx, code = cache.get(x, (None, 0))
        if vertex is None and fx is None:  # the replay stops here: predict on
            w[:9] = t, a, b, c, d, fc, fd, x_best, f_best
            vertex = _vertex(seen, a, b)
        if vertex is None:
            if code:
                break
            if fx > f_best:
                x_best, f_best = x, fx
            seen.append((x, fx))
        elif fx is None:
            missing.append(x)
        a, b, c, d, fc, fd = (a, d, x, c, fx, fc) if left else (c, b, d, x, fd, fx)
        t += 1
    if vertex is not None:
        return 0, missing
    w[:9] = t, a, b, c, d, fc, fd, x_best, f_best
    return code, []


def golden_max(f, a, b, *, x_tol, max_iter=200, known=None):
    """Golden-section maximization of f on each [a, b].

    Assumes f is unimodal on each bracket (the use here is a local refinement
    around a grid argmax).  ``f(x, which)`` returns ``(values, fault)``: the
    values, -inf marking an unevaluable point, and an integer fault code per
    point, 0 where it evaluated.  Returns arrays ``(x_best, f_best, fault)``:
    the best of every point the step-by-step search evaluates, so a result
    can never be worse than its bracket interior, and fault 0.  A nonzero
    code at a point of step t of a bracket's search ends that bracket's
    search, and no other's, at step t: its x_best, f_best come from the
    steps before t (the initial pair's, for a fault in it), and its
    ``fault`` is the largest code among its points of step t.

    Between calls of f the search keeps, per bracket, a cache mapping x to
    (f(x), fault code) and the state of its step-by-step search where the
    last replay stopped.  Each round, :func:`_walk` resumes every bracket's
    search from that state over its cache, up to the first point the cache
    lacks, and names that point and those of every later step, through
    step ``max_iter`` or to ``x_tol``, along the branches that the vertex
    of a parabola through the bracket's known points predicts.
    The known points are those of the steps taken and ``known``, an optional
    pair ``(x, f)`` of ``(n, m)`` arrays of prior points per bracket (such
    as a caller's grid values), used only for the prediction.  One call of
    f evaluates the named points of every bracket that needs values; a
    point off the search's path stays cached for any later path that meets
    it.  The result is the step-by-step search's by construction, whatever
    the predictions.  Brackets are Python floats: their + - * are numpy's
    IEEE double operations, without its cost per call.
    """
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    prior = [[] for _ in a]
    if known is not None:
        kx, kf = np.asarray(known, dtype=float).tolist()
        prior = [list(zip(xs, fs)) for xs, fs in zip(kx, kf)]
    walks = [[0, a, b, b - _INVPHI * (b - a), a + _INVPHI * (b - a), None, None, None, None, p]
             for a, b, p in zip(a, b, prior)]
    caches = [{} for _ in walks]
    while True:
        found = [_walk(w, cache, max_iter, x_tol) for w, cache in zip(walks, caches)]
        which = [j for j, (_, missing) in enumerate(found) for _ in missing]
        if not which:
            break
        xs = [x for _, missing in found for x in missing]
        values, codes = f(np.array(xs, dtype=float), np.array(which, dtype=int))
        for j, x, fx, code in zip(which, xs, np.asarray(values, dtype=float).tolist(),
                                  np.asarray(codes).tolist()):
            caches[j][x] = fx, code
    x_best, f_best = np.array([w[7:9] for w in walks], dtype=float).reshape(-1, 2).T
    return x_best, f_best, np.array([code for code, _ in found], dtype=int)


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
