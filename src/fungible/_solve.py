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

:func:`golden_max` looks ahead, committing several golden-section steps
per call of its ``fun`` on Python-float brackets; its docstring says how.
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

    The search looks ahead.  The first call evaluates both interior points
    of every bracket.  After that, each call evaluates every state the next
    :data:`_LOOKAHEAD` steps can reach, held per open bracket as a heap of
    nodes: node 0 is the next step, whose branch the f(c) >= f(d) test
    already decides, and node k's children are 2k + 1, the branch where
    f(c) >= f(d) keeps [a, d], and 2k + 2, the one that keeps [c, b].  Each
    node holds its bracket, its interior points and the one new point its
    step adds.  One call evaluates, in node order, the new point of every
    node whose parent bracket is still open (b - a > ``x_tol``).  The search
    then commits up to :data:`_LOOKAHEAD` steps, moving from node k to node
    2k + 1 + (f(c) < f(d)) and taking that node's state.  The committed
    points, their arithmetic and the result are those of the step-by-step
    search; the values and faults of the points it does not commit are
    discarded.  Brackets and heaps are Python floats: their + - * are
    numpy's IEEE double operations, without its cost per call.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    values, codes = f(np.concatenate([c, d]), np.tile(np.arange(len(a)), 2))
    fc, fd = np.asarray(values, dtype=float).reshape(2, len(a))
    fault = np.maximum(*np.asarray(codes).reshape(2, len(a))).tolist()
    best_x, best_f = np.where(fc >= fd, [c, fc], [d, fd]).tolist()
    state = np.stack([a, b, c, d, fc, fd], axis=1).tolist()  # per bracket
    for done in range(0, max_iter, _LOOKAHEAD):
        i = [j for j, s in enumerate(state) if s[1] - s[0] > x_tol]
        if any(fault) or not i:
            break
        depth = min(_LOOKAHEAD, max_iter - done)
        heaps = {}
        for j in i:
            heaps[j] = heap = [_golden_step(*state[j][:4], state[j][4] >= state[j][5])]
            for k in range(1, 2**depth - 1):
                heap.append(_golden_step(*heap[(k - 1) // 2][:4], k % 2 == 1))
        nodes = [(k, j) for k in range(2**depth - 1) for j in i
                 if not k or heaps[j][(k - 1) // 2][1] - heaps[j][(k - 1) // 2][0] > x_tol]
        xs = np.array([heaps[j][k][4] for k, j in nodes])
        values, codes = f(xs, np.array([j for _, j in nodes]))
        values, codes = np.asarray(values, dtype=float).tolist(), np.asarray(codes).tolist()
        got = dict(zip(nodes, zip(values, codes)))
        node = dict.fromkeys(i, 0)
        for _ in range(depth):
            stepping = [j for j in i if state[j][1] - state[j][0] > x_tol]
            fault = [got[node[j], j][1] if j in stepping else 0 for j in range(len(state))]
            if any(fault):
                break
            for j in stepping:
                a, b, c, d, x = heaps[j][node[j]]
                fx, (fc, fd) = got[node[j], j][0], state[j][4:]
                fc, fd = (fx, fc) if fc >= fd else (fd, fx)
                state[j] = [a, b, c, d, fc, fd]
                if fx > best_f[j]:
                    best_x[j], best_f[j] = x, fx
                node[j] = 2 * node[j] + 1 + (fc < fd)
    return np.array(best_x, dtype=float), np.array(best_f, dtype=float), np.array(fault, dtype=int)


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
