"""Shared test utilities: small models, oracles, and surrogate fits."""

from __future__ import annotations

import math

import numpy as np

from fungible import ModelSpec, f_ml, gradient, make_model
from fungible import contour, fit, simstudy
from fungible.errors import FungibleError


def saturated_1var():
    """One observed variable with a free variance."""
    return make_model(["z"], [], [], [{"row": "z", "col": "z", "param": "v"}])


def diag_model(p):
    """p observed variables, free variances, no paths."""
    names = [f"z{i}" for i in range(p)]
    symmetric = [{"row": nm, "col": nm, "param": f"v{i}"} for i, nm in enumerate(names)]
    return make_model(names, [], [], symmetric)


def two_var_path(fixed_exogenous=True):
    """x -> y with free coefficient; exogenous variance fixed at 1 (or free)."""
    symmetric = [{"row": "y", "col": "y", "param": "u"}]
    if fixed_exogenous:
        symmetric.insert(0, {"row": "x", "col": "x", "value": 1.0})
    else:
        symmetric.insert(0, {"row": "x", "col": "x", "param": "v"})
    return make_model(["x", "y"], [], [{"row": "y", "col": "x", "param": "b"}], symmetric)


def feedback_model():
    """x <-> y feedback loop with a free unique variance for y; (I - A) is
    singular where b1 * b2 = 1."""
    return make_model(
        ["x", "y"],
        [],
        [{"row": "y", "col": "x", "param": "b1"}, {"row": "x", "col": "y", "param": "b2"}],
        [{"row": "x", "col": "x", "value": 1.0}, {"row": "y", "col": "y", "param": "vy"}],
    )


def shared_entry_model():
    """Parameter ``t`` on an A entry, an S diagonal and an S covariance,
    with fixed S values on and off the diagonal."""
    return make_model(
        ["x1", "x2", "x3"],
        ["f"],
        [
            {"row": "x1", "col": "f", "param": "t"},
            {"row": "x2", "col": "f", "param": "l2"},
            {"row": "x3", "col": "f", "param": "l3"},
        ],
        [
            {"row": "x2", "col": "x2", "param": "t"},
            {"row": "x1", "col": "x3", "param": "t"},
            {"row": "x1", "col": "x1", "param": "u1"},
            {"row": "x3", "col": "x3", "param": "u3"},
            {"row": "f", "col": "f", "value": 1.0},
            {"row": "x1", "col": "x2", "value": 0.2},
        ],
    )


def random_model(rng):
    """A random small recursive model plus a random theta and a random
    positive definite covariance of matching order."""
    p = int(rng.integers(2, 5))
    with_latent = bool(rng.integers(0, 2))
    obs = [f"y{i}" for i in range(p)]
    lat = ["f0"] if with_latent else []
    budget = p * (p + 1) // 2 - p  # free slots beyond the p variances
    directed = []
    k = 0
    if with_latent:
        for i in range(p):
            if k < budget and (i == 0 or rng.random() < 0.7):
                directed.append({"row": obs[i], "col": "f0", "param": f"b{k}"})
                k += 1
    for j in range(1, p):
        for i in range(j):
            if k < budget and rng.random() < 0.3:
                directed.append({"row": obs[j], "col": obs[i], "param": f"b{k}"})
                k += 1
    symmetric = [{"row": nm, "col": nm, "param": f"v{i}"} for i, nm in enumerate(obs)]
    if with_latent:
        symmetric.append({"row": "f0", "col": "f0", "value": 1.0})
    model = make_model(obs, lat, directed, symmetric)

    theta = np.empty(model.q)
    for i in range(model.q):
        if model.variance_param_mask[i]:
            theta[i] = rng.uniform(0.4, 1.6)
        else:
            theta[i] = rng.uniform(-0.7, 0.7)
    a = rng.standard_normal((p, p + 3))
    s = a @ a.T / (p + 3) + 0.5 * np.eye(p)
    return model, theta, s


def permute_observed(model: ModelSpec, perm):
    """The same model with its observed variables reordered by ``perm``."""
    perm = list(perm)
    full = np.array(perm + list(range(model.n_observed, model.m)))
    ix = np.ix_(full, full)
    return ModelSpec(
        observed=tuple(model.observed[i] for i in perm),
        latent=model.latent,
        directed_fixed=model.directed_fixed[ix],
        directed_param=model.directed_param[ix],
        symmetric_fixed=model.symmetric_fixed[ix],
        symmetric_param=model.symmetric_param[ix],
        theta_names=model.theta_names,
        start=model.start,
    )


def reference_f_ml(model, theta, s):
    """Textbook ML discrepancy F = ln|Sigma| - ln|s| + tr(s Sigma^-1) - p,
    with Sigma built from the model's pattern matrices by ``np.linalg.inv``
    and the log-determinants taken by ``slogdet``; no package internals.
    The independent oracle for ``f_ml`` and ``f_ml_stack`` at points where
    Sigma(theta) is positive definite."""
    a = model.directed_fixed.copy()
    sym = model.symmetric_fixed.copy()
    for k, value in enumerate(np.asarray(theta, dtype=float)):
        a[model.directed_param == k] = value
        sym[model.symmetric_param == k] = value
    g_inv = np.linalg.inv(np.eye(model.m) - a)
    p = model.n_observed
    sigma = (g_inv @ sym @ g_inv.T)[:p, :p]
    s = np.asarray(s, dtype=float)
    return (np.linalg.slogdet(sigma)[1] - np.linalg.slogdet(s)[1]
            + np.trace(s @ np.linalg.inv(sigma)) - p)


def reference_implied(model, thetas):
    """``(ok, G, GSG', Sigma)`` at every row of a ``(k, q)`` stack, with G
    from the stacked solve of (I - A) against I for every model, recursive
    or not, and ``ok`` the rows whose solve is finite with residual at most
    1e-8 max(1, max|G|); numpy only.  The oracle for ``implied_stack``,
    whose single-step path must match it byte for byte on the builtin
    conditions."""
    thetas = np.asarray(thetas, dtype=float)
    k, m = len(thetas), model.m
    a = np.repeat(model.directed_fixed[None], k, axis=0)
    sym = np.repeat(model.symmetric_fixed[None], k, axis=0)
    for i in range(model.q):
        a[:, model.directed_param == i] = thetas[:, i, None]
        sym[:, model.symmetric_param == i] = thetas[:, i, None]
    eye = np.eye(m)
    im_a = eye - a
    g = np.full((k, m, m), np.nan)
    for r in range(k):
        try:
            g[r] = np.linalg.solve(im_a[r], eye)
        except np.linalg.LinAlgError:
            pass
    resid = np.abs(im_a @ g - eye).max(axis=(1, 2))
    g_max = np.abs(g).max(axis=(1, 2))
    ok = np.isfinite(g_max) & (resid <= 1e-8 * np.maximum(1.0, g_max))
    g, sym = g[ok], sym[ok]
    c = g @ sym @ g.transpose(0, 2, 1)
    p = model.n_observed
    sigma = c[:, :p, :p]
    return ok, g, c, 0.5 * (sigma + sigma.transpose(0, 2, 1))


def reference_grad_from_implied(model, s, g_mat, c_mat, sigma):
    """The analytic gradient read off the pattern matrices: every free A
    entry (i, j) adds 2 (G S G' F' W F G)_ji to its parameter, and every free
    S entry (i, j) with i <= j adds (G' F' W F G)_ij, twice off the diagonal;
    the A entries, then S's upper triangle, each row-major, summed by
    ``np.add.at`` into zeros.  The oracle for
    ``discrepancy._grad_from_implied``, whose one bincount must give the
    same bytes."""
    p = model.n_observed
    sigma_inv = np.linalg.inv(sigma)
    w = sigma_inv @ (sigma - s) @ sigma_inv
    w = 0.5 * (w + np.swapaxes(w, -1, -2))
    g_obs = g_mat[..., :p, :]
    q_mat = np.swapaxes(c_mat[..., :, :p] @ w @ g_obs, -1, -2)
    d_mat = np.swapaxes(g_obs, -1, -2) @ w @ g_obs
    a_rows, a_cols = np.nonzero(model.directed_param >= 0)
    s_rows, s_cols = np.nonzero(np.triu(model.symmetric_param >= 0))
    params = np.concatenate(
        [model.directed_param[a_rows, a_cols], model.symmetric_param[s_rows, s_cols]]
    )
    factor = np.concatenate([np.full(len(a_rows), 2.0), np.where(s_rows == s_cols, 1.0, 2.0)])
    terms = factor * np.concatenate(
        [q_mat[..., a_rows, a_cols], d_mat[..., s_rows, s_cols]], axis=-1
    )
    grad = np.zeros(terms.shape[:-1] + (model.q,))
    np.add.at(grad.T, params, terms.T)
    return grad


def finite_diff_gradient(model, theta, s, rel_step=1e-6):
    """Central finite differences of f_ml; the oracle for the analytic
    gradient."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(model.q)
    for i in range(model.q):
        h = rel_step * max(1.0, abs(theta[i]))
        step = np.zeros(model.q)
        step[i] = h
        grad[i] = (f_ml(model, theta + step, s) - f_ml(model, theta - step, s)) / (2 * h)
    return grad


def loop_hessian(model, theta, s):
    """Hessian as 2q scalar :func:`gradient` calls, one per point
    theta +- h_i e_i, in the order +e_1, -e_1, +e_2, ...; the oracle for the
    stacked ``hessian``."""
    theta = np.asarray(theta, dtype=float)
    h_mat = np.empty((model.q, model.q))
    for i in range(model.q):
        h = 1e-5 * max(1.0, abs(theta[i]))
        step = np.zeros(model.q)
        step[i] = h
        g_plus = gradient(model, theta + step, s)
        g_minus = gradient(model, theta - step, s)
        h_mat[:, i] = (g_plus - g_minus) / (2.0 * h)
    return 0.5 * (h_mat + h_mat.T)


class RowMapped:
    """Mixin for duck-typed fits: ``objectives(thetas)``, the stacked form
    the contour engine evaluates, as the scalar ``objective`` at every row
    (NaN where the objective returns NaN)."""

    def objectives(self, thetas):
        return np.array([self.objective(theta) for theta in thetas], dtype=float)


class QuadraticSurrogate(RowMapped):
    """Duck-typed fit whose objective is exactly quadratic around theta_hat.

    Exposes the attributes the contour operations read from a FitResult.
    """

    def __init__(self, hessian, theta_hat=None, f_hat=0.0, n=None):
        self.hessian_at_opt = np.asarray(hessian, dtype=float)
        q = self.hessian_at_opt.shape[0]
        self.theta_hat = np.zeros(q) if theta_hat is None else np.asarray(theta_hat, float)
        self.f_hat = float(f_hat)
        self.n = n

    def objective(self, theta):
        d = np.asarray(theta, dtype=float) - self.theta_hat
        return self.f_hat + 0.5 * float(d @ self.hessian_at_opt @ d)


def reference_golden_max(f, a, b, *, x_tol, max_iter=200):
    """Step-by-step golden-section maximization of f on each [a, b], one
    call of ``f(x, which) -> values`` per step; no package internals.  The
    oracle for the look-ahead ``_solve.golden_max``, which must commit the
    same points and return the same ``(x_best, f_best)``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n = len(a)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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
        x = np.where(left, b[i] - invphi * (b[i] - a[i]), a[i] + invphi * (b[i] - a[i]))
        fx = np.asarray(f(x, i), dtype=float)
        c[li], fc[li] = x[left], fx[left]
        d[ri], fd[ri] = x[~left], fx[~left]
        better = fx > best_f[i]
        best_x[i[better]] = x[better]
        best_f[i[better]] = fx[better]
    return best_x, best_f


def reference_bracketed_root(g, lo, hi, g_lo, g_hi, *, f_tol, max_iter=200):
    """One problem's root of g(x) = 0 on [lo, hi], given g(lo) <= 0 <= g(hi),
    by the textbook safeguarded secant, one scalar ``g(x)`` call per step:
    the secant through the last two points, or the midpoint where the secant
    is undefined or leaves the open bracket; the bracket keeps g < 0 at its
    left end.  Returns ``(root, fault)``: the first x with |g(x)| <= f_tol
    and 0 (an end of [lo, hi] included); NaN and 2 where g returns NaN; NaN
    and 1 where the bracket collapses to 1e-16 of its magnitude or
    ``max_iter`` steps pass.  No package internals.  The oracle for
    ``_solve.bracketed_root``, which must visit the same points and return
    the same root bytes and fault per element."""
    for end, g_end in ((lo, g_lo), (hi, g_hi)):
        if abs(g_end) <= f_tol:
            return end, 0
    a, b = lo, hi
    x0, g0, x1, g1 = lo, g_lo, hi, g_hi
    for _ in range(max_iter):
        x = 0.5 * (a + b)
        if g1 != g0 and math.isfinite(g1 - g0):
            secant = x1 - g1 * (x1 - x0) / (g1 - g0)
            if a < secant < b:
                x = secant
        gx = g(x)
        if math.isnan(gx):
            return math.nan, 2
        if abs(gx) <= f_tol:
            return x, 0
        if gx < 0:
            a = x
        else:
            b = x
        x0, g0, x1, g1 = x1, g1, x, gx
        if b - a <= 1e-16 * max(1.0, abs(a), abs(b)):
            break
    return math.nan, 1


def reference_bracket_level(g, lo, hi, g_lo, *, doublings, edge_iters):
    """One problem's walk out to the level g(x) = 0, one scalar ``g(x)``
    call per step: double hi until g(hi) >= 0, moving lo up past every
    g(hi) < 0; where g(hi) is NaN, bisect [lo, hi] back to the edge of g's
    domain and take the largest point that evaluated.  No package
    internals.  The oracle for ``_solve.bracket_level``, which must return
    the same ``(lo, hi, g_lo, g_hi, escaped)`` per element."""
    for _ in range(doublings):
        g_hi = g(hi)
        if math.isnan(g_hi):
            good, g_good, bad = lo, g_lo, hi
            for _ in range(edge_iters):
                mid = 0.5 * (good + bad)
                g_mid = g(mid)
                if math.isnan(g_mid):
                    bad = mid
                else:
                    good, g_good = mid, g_mid
            return lo, good, g_lo, g_good, g_good < 0
        if g_hi >= 0:
            return lo, hi, g_lo, g_hi, False
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
    return lo, hi, g_lo, math.nan, True


def reference_run_cell(design, condition, n, epsilon, mode):
    """One study cell by its own draw -> fit -> width loop, with no cached
    fits: every replication is drawn and fitted afresh, excluded when the
    draw or the fit fails, the fit is nonconverged or improper, or the sweep
    is partial.  The oracle for ``simstudy.run_cell``, which must return an
    equal ``StudyCell``."""
    target = {t.mode: t for t in design.targets}[mode]
    cond = simstudy.condition_at(condition, float(epsilon))
    model = cond.model
    focal = tuple(model.theta_names.index(name) for name in design.focal)
    population = mode in design.population_analysis
    majors, minors = [], []
    excluded = 0
    for rep in range(1 if population else design.replications):
        try:
            if population:
                s = cond.sigma_pop
            else:
                rng = simstudy.replication_rng(design.seed, condition, n, epsilon, rep)
                s = simstudy.wishart_sample(cond.sigma_pop, n, rng)
            res = fit.fit_ml(model, s, n=n)
            if not res.converged or res.improper:
                excluded += 1
                continue
            level = contour.f_target(target, res, n_focal=len(focal))
            widths = contour.axis_widths_exact(res, level, focal, design.directions)
        except FungibleError:
            excluded += 1
            continue
        if widths.partial:
            excluded += 1
            continue
        majors.append(widths.major)
        minors.append(widths.minor)
    return simstudy.StudyCell(
        condition=condition,
        n=int(n),
        epsilon=float(epsilon),
        mode=mode,
        major_mean=float(np.mean(majors)) if majors else math.nan,
        major_sd=float(np.std(majors, ddof=1)) if len(majors) > 1 else 0.0,
        minor_mean=float(np.mean(minors)) if minors else math.nan,
        minor_sd=float(np.std(minors, ddof=1)) if len(minors) > 1 else 0.0,
        n_converged=len(majors),
        n_excluded=excluded,
    )


def clear_fit_caches():
    """Empty the study's cached draws and fits, so that the next run
    computes them again."""
    simstudy._sample_fits.cache_clear()
    simstudy._population_fit.cache_clear()
