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

:func:`golden_max` runs each bracket as a row, like each fit of
:func:`~fungible.fit.fit_stack`: a generator that yields its requests and,
last, its outcome.  Each round the lockstep loop makes one call for the
requests of every live row and resumes those rows; it holds no row's state
and catches no row's exception.  A bracket's row is the step-by-step
golden-section search over a cache of evaluated points; where a step's
point is not cached it requests that point and those of the following
steps along predicted branches, so one call of ``fun`` serves several
steps: the first path of a bracket walks toward the caller's guess of its
argmax, and each later one toward the vertex of a parabola through the
best points seen (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 5).  Its result is the step-by-step search's by
construction, whatever the guess.
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


def _ahead(a, b, c, d, toward, cache, steps, x_tol):
    """The points that ``cache`` lacks of the interior pair c < d of [a, b]
    and of the next ``steps`` golden steps, each keeping the side nearer
    ``toward``, while the bracket is wider than ``x_tol``: the pair's
    first, then the steps' in order."""
    missing = [x for x in (c, d) if x not in cache]
    while steps > 0 and b - a > x_tol:
        left = abs(c - toward) <= abs(d - toward)
        x = d - _INVPHI * (d - a) if left else c + _INVPHI * (b - c)
        if x not in cache:
            missing.append(x)
        a, b, c, d = (a, d, x, c) if left else (c, b, d, x)
        steps -= 1
    return missing


def _bracket(a, b, cache, guess, max_iter, x_tol):
    """One bracket of :func:`golden_max`: the step-by-step golden search on
    [a, b] over ``cache``, which maps x to ``(f(x), fault code)``.  Step 0
    takes the interior pair c < d, step t >= 1 the t-th golden step.  Where
    the cache lacks a step's point, the search yields :func:`_ahead`'s
    points of that step and the following ones, along the branches toward
    ``guess`` from the pair, else toward :func:`_vertex` of the points of
    the steps taken, and resumes once they are cached.  Its last yield is
    its outcome ``(x_best, f_best, code)``: at the first step with a
    nonzero code the search ends before taking it (the pair is taken),
    ``code`` the step's largest; after step ``max_iter``, or once the
    bracket is no wider than ``x_tol``, the search is done, code 0."""
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    while c not in cache or d not in cache:
        yield _ahead(a, b, c, d, guess, cache, max_iter, x_tol)
    (fc, code_c), (fd, code_d) = cache[c], cache[d]
    x_best, f_best = (c, fc) if fc >= fd else (d, fd)
    seen, code, t = [(c, fc), (d, fd)], max(code_c, code_d), 1
    while not code and t <= max_iter and b - a > x_tol:
        left = fc >= fd  # keep [a, d], the new point below c; else [c, b], above d
        x = d - _INVPHI * (d - a) if left else c + _INVPHI * (b - c)
        step = (a, d, x, c) if left else (c, b, d, x)
        while x not in cache:
            yield _ahead(*step, _vertex(seen, a, b), cache, max_iter - t, x_tol)
        fx, code = cache[x]
        if code:
            break
        if fx > f_best:
            x_best, f_best = x, fx
        seen.append((x, fx))
        (a, b, c, d), (fc, fd) = step, (fx, fc) if left else (fd, fx)
        t += 1
    yield x_best, f_best, code


def golden_max(f, a, b, guess, *, x_tol, max_iter=200):
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

    Each bracket is a :func:`_bracket` row over its own cache, mapping x to
    (f(x), fault code), and each round one call of f evaluates every live
    bracket's requested points: at each step the side nearer a predicted
    argmax, through step ``max_iter`` or to ``x_tol``, that is ``guess``
    (one point per bracket) for the first path and the vertex of a parabola
    through the best points of the steps taken for later ones (a NaN guess
    takes the right branch throughout; the first path is only as good as
    the guess).  A point off the search's path stays cached for any later
    path that meets it.  The result is the step-by-step search's by
    construction, whatever the predictions.  Brackets are Python floats:
    their + - * are numpy's IEEE double operations, without its cost per call.
    """
    a, b, guess = (np.asarray(v, dtype=float).tolist() for v in (a, b, guess))
    caches = [{} for _ in a]
    rows = [_bracket(*row, max_iter, x_tol) for row in zip(a, b, caches, guess)]
    asks = [next(row) for row in rows]
    while which := [j for j, ask in enumerate(asks) if type(ask) is list for _ in ask]:
        xs = [x for ask in asks if type(ask) is list for x in ask]
        values, codes = f(np.array(xs, dtype=float), np.array(which, dtype=int))
        for j, x, fx, code in zip(which, xs, np.asarray(values, dtype=float).tolist(),
                                  np.asarray(codes).tolist()):
            caches[j][x] = fx, code
        asks = [next(row) if type(ask) is list else ask for row, ask in zip(rows, asks)]
    x_best, f_best, fault = np.array(asks, dtype=float).reshape(-1, 3).T
    return x_best, f_best, fault.astype(int)


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
