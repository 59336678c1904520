"""Math core: ML discrepancy with derivatives, the discrepancy over a stack
of parameter vectors, RMSEA conversions, and chi-square quantiles.

All functions are pure and reentrant.  Positive definiteness is always
established by attempting a Cholesky factorization; there is no eigenvalue
thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularStructure
from .model import ModelSpec, _implied, as_theta

__all__ = [
    "f_ml",
    "f_ml_stack",
    "gradient",
    "hessian",
    "rmsea_from_f",
    "f_from_rmsea",
    "chisq_quantile",
    "FitIndices",
    "fit_indices",
]


def _chol(mat, which):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(which) from None


def _logdet_from_chol(chol_factor):
    return 2.0 * float(np.sum(np.log(np.diag(chol_factor))))


def _f_from_sigma(model, sigma, s, ld_s):
    ld_sigma = _logdet_from_chol(_chol(sigma, "sigma_theta"))
    try:
        trace = float(np.trace(np.linalg.solve(sigma, s)))
    except np.linalg.LinAlgError:
        # LU can meet an exact zero pivot on a Sigma whose Cholesky passed
        raise NotPositiveDefinite("sigma_theta") from None
    return max(0.0, ld_sigma - ld_s + trace - model.n_observed)


def _value_and_implied(model, theta, s, ld_s):
    """:func:`f_ml` at theta against s, given ln|s|, together with the
    implied matrices ``(G, GSG', Sigma)`` it was computed from."""
    _, _, g_mat, c_mat, sigma = _implied(model, theta)
    return _f_from_sigma(model, sigma, s, ld_s), (g_mat, c_mat, sigma)


def f_ml(model: ModelSpec, theta, s) -> float:
    """ML discrepancy between a covariance s and the model-implied Sigma(theta):

        F = ln|Sigma| - ln|s| + tr(s Sigma^-1) - p

    Nonnegative, zero iff Sigma(theta) = s.  Raises
    :class:`NotPositiveDefinite` naming whichever of ``s`` or ``Sigma(theta)``
    fails its Cholesky factorization (or, for Sigma, its solve).
    """
    s = np.asarray(s, dtype=float)
    ld_s = _logdet_from_chol(_chol(s, "s"))
    return _value_and_implied(model, theta, s, ld_s)[0]


def _rows_or_nan(fn, mats, *args):
    """fn over a (k, n, n) stack in one call; only when that call raises,
    one call per matrix, with NaN for the matrices where it raises."""
    try:
        return fn(mats, *args)
    except np.linalg.LinAlgError:
        pass
    out = np.full(mats.shape, np.nan)
    for i, mat in enumerate(mats):
        try:
            out[i] = fn(mat, *args)
        except np.linalg.LinAlgError:
            pass
    return out


def _implied_stack(model, thetas):
    """``model._implied`` over a ``(k, q)`` stack of parameter vectors.

    Returns ``(rows, G, GSG', Sigma)``: ``rows`` indexes the vectors whose
    (I - A) passes the singularity tests of ``model._implied``, and the
    ``(len(rows), ., .)`` matrix stacks belong to those vectors.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.q:
        raise ValueError(f"parameter stack must have shape (k, {model.q}), got {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("parameter vectors must be finite")
    k, m, p = len(thetas), model.m, model.n_observed
    eye = np.eye(m)
    a = np.repeat(model.directed_fixed[None], k, axis=0)
    free = model.directed_param >= 0
    a[:, free] = thetas[:, model.directed_param[free]]
    sym = np.repeat(model.symmetric_fixed[None], k, axis=0)
    free = model.symmetric_param >= 0
    sym[:, free] = thetas[:, model.symmetric_param[free]]

    im_a = eye - a
    g = _rows_or_nan(np.linalg.solve, im_a, eye)
    resid = np.abs(im_a @ g - eye).max(axis=(1, 2))
    g_max = np.abs(g).max(axis=(1, 2))
    rows = np.flatnonzero(np.isfinite(g_max) & (resid <= 1e-8 * np.maximum(1.0, g_max)))
    if len(rows) < k:
        g, sym = g[rows], sym[rows]
    c = g @ sym @ g.transpose(0, 2, 1)
    sigma = c[:, :p, :p]
    return rows, g, c, 0.5 * (sigma + sigma.transpose(0, 2, 1))


def f_ml_stack(model: ModelSpec, thetas, s, *, ld_s: float | None = None) -> np.ndarray:
    """:func:`f_ml` at every row of a ``(k, q)`` stack of parameter vectors.

    A and S are assembled for all rows at once; (I - A) is solved, Sigma is
    Cholesky-factored and solved against s as stacked numpy calls.  Returns a
    ``(k,)`` array holding NaN wherever :func:`f_ml` raises a domain error
    for that row ((I - A) singular, Sigma not positive definite).  ``ld_s``
    is ln|s|, passed by callers that evaluate against one s many times;
    without it s is factored here, raising :class:`NotPositiveDefinite` for
    an s that is not positive definite.
    """
    s = np.asarray(s, dtype=float)
    if ld_s is None:
        ld_s = _logdet_from_chol(_chol(s, "s"))
    rows, _, _, sigma = _implied_stack(model, thetas)
    chol = _rows_or_nan(np.linalg.cholesky, sigma)
    ld_sigma = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    trace = np.trace(_rows_or_nan(np.linalg.solve, sigma, s), axis1=1, axis2=2)
    out = np.full(len(thetas), np.nan)
    out[rows] = np.maximum(0.0, ld_sigma - ld_s + trace - model.n_observed)
    return out


def _grad_from_implied(model, s, g_mat, c_mat, sigma, sigma_inv):
    """Gradient of F from the implied matrices at one point, or from
    ``(k, ., .)`` stacks of them at k points (then ``(k, q)``)."""
    p = model.n_observed
    w = sigma_inv @ (sigma - s) @ sigma_inv
    w = 0.5 * (w + np.swapaxes(w, -1, -2))
    g_obs = g_mat[..., :p, :]                  # F G
    # transpose of G S G' F' W F G, and G' F' W F G
    q_mat = np.swapaxes(c_mat[..., :, :p] @ w @ g_obs, -1, -2)
    d_mat = np.swapaxes(g_obs, -1, -2) @ w @ g_obs
    params, a_rows, a_cols, s_rows, s_cols, factor = model._gradient_gather
    terms = factor * np.concatenate(
        [q_mat[..., a_rows, a_cols], d_mat[..., s_rows, s_cols]], axis=-1
    )
    grad = np.zeros(terms.shape[:-1] + (model.q,))
    # entries sharing a parameter add up in entry order
    np.add.at(grad.T, params, terms.T)
    return grad


def gradient(model: ModelSpec, theta, s) -> np.ndarray:
    """Analytic gradient of :func:`f_ml` in theta (chain rule through the
    RAM structure)."""
    s = np.asarray(s, dtype=float)
    _chol(s, "s")
    _, _, g_mat, c_mat, sigma = _implied(model, theta)
    _chol(sigma, "sigma_theta")
    return _grad_from_implied(model, s, g_mat, c_mat, sigma, np.linalg.inv(sigma))


def _gradient_stack(model, thetas, s):
    """:func:`gradient` at every row of a ``(k, q)`` stack in one stacked
    evaluation.  Where it raises for some rows, raises what :func:`gradient`
    raises at the first of them: :class:`SingularStructure`,
    :class:`NotPositiveDefinite` ``("sigma_theta")``, or numpy's
    ``LinAlgError`` from inverting a Sigma that passed its Cholesky test."""
    rows, g_mat, c_mat, sigma = _implied_stack(model, thetas)
    not_pd = np.isnan(_rows_or_nan(np.linalg.cholesky, sigma)).any(axis=(1, 2))
    sigma_inv = _rows_or_nan(np.linalg.inv, sigma)
    no_inverse = np.isnan(sigma_inv).any(axis=(1, 2))
    # per row, in the order gradient tests them: 1 (I - A) singular,
    # 2 Sigma not positive definite, 3 Sigma not invertible; 0 no fault
    fault = np.ones(len(thetas), dtype=int)
    fault[rows] = np.where(not_pd, 2, np.where(no_inverse, 3, 0))
    bad = np.flatnonzero(fault)
    if len(bad):
        kind = fault[bad[0]]
        if kind == 1:
            raise SingularStructure("(I - A) is numerically singular")
        if kind == 2:
            raise NotPositiveDefinite("sigma_theta")
        raise np.linalg.LinAlgError("Singular matrix")
    return _grad_from_implied(model, s, g_mat, c_mat, sigma, sigma_inv)


def hessian(model: ModelSpec, theta, s) -> np.ndarray:
    """Hessian of :func:`f_ml` by central finite differences of the analytic
    gradient, step 1e-5 * max(1, |theta_i|) per coordinate, symmetrized.

    The 2q gradients at theta + h_i e_i and theta - h_i e_i are one stacked
    evaluation.  Where some of those points leave the domain, raises the
    error :func:`gradient` raises at the first of them in the order
    +e_1, -e_1, +e_2, -e_2, ...
    """
    s = np.asarray(s, dtype=float)
    _chol(s, "s")
    theta = as_theta(model, theta)
    h = 1e-5 * np.maximum(1.0, np.abs(theta))
    points = np.empty((2 * model.q, model.q))
    points[0::2] = theta + np.diag(h)
    points[1::2] = theta - np.diag(h)
    grads = _gradient_stack(model, points, s)
    h_mat = ((grads[0::2] - grads[1::2]) / (2.0 * h)[:, None]).T
    return 0.5 * (h_mat + h_mat.T)


# ---------------------------------------------------------------------------
# RMSEA conversions


def rmsea_from_f(f: float, df: int, n: int | None = None, *, population: bool = False) -> float:
    """RMSEA from a discrepancy value.

    Population mode: sqrt(f/df).  Sample mode: sqrt(max(f/df - 1/(n-1), 0)),
    the (n-1)-convention noncentrality rescaling (truncated at zero).
    """
    if df < 1:
        raise ValueError("df must be at least 1")
    if f < 0:
        raise ValueError("f must be nonnegative")
    if population:
        return math.sqrt(f / df)
    if n is None or n < 2:
        raise ValueError("sample mode needs n >= 2")
    return math.sqrt(max(f / df - 1.0 / (n - 1), 0.0))


def f_from_rmsea(epsilon: float, df: int, n: int | None = None, *, population: bool = False) -> float:
    """Exact inverse of :func:`rmsea_from_f` on the non-truncated branch."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if population:
        return df * epsilon * epsilon
    if n is None or n < 2:
        raise ValueError("sample mode needs n >= 2")
    return df * (epsilon * epsilon + 1.0 / (n - 1))


@dataclass(frozen=True)
class FitIndices:
    """Discrepancy value with its RMSEA rescalings."""

    f_value: float
    df: int
    n: int | None
    rmsea_sample: float | None
    rmsea_population: float | None

    def __post_init__(self):
        if self.f_value < 0:
            raise ValueError("f_value must be nonnegative")
        for eps in (self.rmsea_sample, self.rmsea_population):
            if eps is not None and self.df < 1:
                raise ValueError("df must be at least 1 when an RMSEA is populated")
            if eps is not None and eps < 0:
                raise ValueError("rmsea values must be nonnegative")


def fit_indices(f_value: float, df: int, n: int | None = None, *, population: bool = False) -> FitIndices:
    if population:
        return FitIndices(f_value, df, n, None, rmsea_from_f(f_value, df, population=True))
    return FitIndices(f_value, df, n, rmsea_from_f(f_value, df, n), None)


# ---------------------------------------------------------------------------
# Chi-square quantiles via the regularized incomplete gamma function


def _gammp(a, x):
    """Regularized lower incomplete gamma P(a, x); series for x < a + 1,
    Lentz continued fraction for the complement otherwise."""
    if x < 0 or a <= 0:
        raise ValueError("invalid incomplete gamma arguments")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        ap = a
        term = total = 1.0 / a
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    return 1.0 - q


def _norm_quantile(p):
    # Abramowitz & Stegun 26.2.23 rational approximation; |error| < 4.5e-4,
    # only used to seed the Newton refinement below.
    pp = p if p < 0.5 else 1.0 - p
    pp = max(pp, 1e-300)
    t = math.sqrt(-2.0 * math.log(pp))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3
    )
    return -z if p < 0.5 else z


def chisq_quantile(df: int, prob: float) -> float:
    """Quantile of the chi-square distribution.

    Returns x with P(df/2, x/2) = prob to within 1e-10, where P is the
    regularized lower incomplete gamma function.  A Wilson-Hilferty starting
    value is refined by Newton steps safeguarded inside a maintained
    bisection bracket.
    """
    df = int(df)
    if df < 1:
        raise ValueError("df must be at least 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must be in (0, 1)")
    a = 0.5 * df

    def cdf(x):
        return _gammp(a, 0.5 * x)

    def pdf(x):
        if x <= 0:
            return 0.0
        log_pdf = (a - 1.0) * math.log(0.5 * x) - 0.5 * x - math.lgamma(a)
        return 0.5 * math.exp(log_pdf)

    z = _norm_quantile(prob)
    t = 1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))
    x = df * t ** 3 if t > 0 else 1e-8 * df

    lo, hi = 0.0, max(x, 1.0)
    while cdf(hi) < prob:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            break
    x = min(max(x, lo + 1e-300), hi)

    for _ in range(300):
        err = cdf(x) - prob
        if abs(err) <= 1e-13:
            return x
        if err < 0:
            lo = x
        else:
            hi = x
        slope = pdf(x)
        if slope > 0:
            x_new = x - err / slope
        else:
            x_new = 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    return x
