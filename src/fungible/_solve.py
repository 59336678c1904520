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
per call of its ``fun``; its docstring describes how.
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
    discarded.
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
        # per node and open bracket: a, b, c, d and the step's new point
        heap = np.empty((5, 2**depth - 1, len(i)))
        opens = np.empty(heap.shape[1:], dtype=bool)
        for s in range(depth):
            k = np.arange(2**s - 1, 2 ** (s + 1) - 1)
            prior = heap[:4, (k - 1) // 2] if s else np.stack([a[i], b[i], c[i], d[i]])[:, None]
            opens[k] = prior[1] - prior[0] > x_tol
            heap[:, k] = _golden_step(*prior, (k % 2 == 1)[:, None] if s else fc[i] >= fd[i])
        node_values, node_codes = np.empty(opens.shape), np.empty(opens.shape, dtype=int)
        node_values[opens], node_codes[opens] = f(heap[4][opens], i[np.nonzero(opens)[1]])
        node = np.zeros(len(i), dtype=int)
        for _ in range(depth):
            stepping = np.flatnonzero(b[i] - a[i] > x_tol)
            j, k = i[stepping], node[stepping]
            fault[j], fx = node_codes[k, stepping], node_values[k, stepping]
            if fault.any():
                break
            left = fc[j] >= fd[j]
            a[j], b[j], c[j], d[j], x = heap[:, k, stepping]
            fc[j], fd[j] = np.where(left, fx, fd[j]), np.where(left, fc[j], fx)
            better = fx > best_f[j]
            best_x[j], best_f[j] = np.where(better, x, best_x[j]), np.where(better, fx, best_f[j])
            node[stepping] = 2 * k + 1 + (fc[j] < fd[j])
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
