"""Math core: ML discrepancy with derivatives, RMSEA conversions, and
chi-square quantiles.

F and its gradient come from one kernel, :func:`evaluate_stack`, over a
``(k, q)`` stack of parameter vectors, with one fault code per row.
:func:`f_ml` and :func:`gradient` are its one-row views and raise the fault
as a domain error; :func:`f_ml_stack` gives NaN at faulted rows, and
:func:`hessian` evaluates its 2q gradient points as one stack.

All functions are pure and reentrant.  Positive definiteness is always
established by attempting a Cholesky factorization; there is no eigenvalue
thresholding.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import NotPositiveDefinite, SingularStructure
from .model import ModelSpec, _rows_or_nan, as_theta, implied_stack

__all__ = [
    "f_ml",
    "f_ml_stack",
    "gradient",
    "hessian",
    "rmsea_from_f",
    "f_from_rmsea",
    "chisq_quantile",
]

# per-row fault codes of :func:`evaluate_stack`
SINGULAR_STRUCTURE = 1  # (I - A) numerically singular
SIGMA_NOT_PD = 2        # Sigma fails its Cholesky test or its solve


def _logdet_s(s):
    """ln|s| from the Cholesky factor of s; raises
    :class:`NotPositiveDefinite` ``("s")`` when s is not positive definite."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("s") from None
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def evaluate_stack(model: ModelSpec, thetas, s, ld_s):
    """F against s, given ln|s|, at every row of a validated ``(k, q)`` stack.

    Sigma is Cholesky-factored for ln|Sigma|, and the rows that pass are
    solved against s for the trace, each as one stacked call.  Returns
    ``(fault, f, implied)``: per row 0, ``SINGULAR_STRUCTURE`` or
    ``SIGMA_NOT_PD``; F, NaN where faulted; the ``(G, GSG', Sigma)`` stacks
    of the rows whose (I - A)^-1 is usable.

    A one-row call, which every line-search trial of a fit makes, costs
    about 37 us on a 2-core Xeon VM, mostly numpy's per-call overhead; the
    cost per row falls to about 3 us in stacks of 64 rows or more.
    """
    ok, g_mat, c_mat, sigma = implied_stack(model, thetas)
    k, p = sigma.shape[:2]
    chol = _rows_or_nan(np.linalg.cholesky, sigma)
    # the factors' diagonals, as a strided view
    ld_sigma = 2.0 * np.log(chol.reshape(k, p * p)[:, :: p + 1]).sum(axis=1)
    pd = np.isfinite(ld_sigma)
    # numpy solves each matrix of a stack on its own: a row's trace does not
    # depend on which other rows are in the stack
    if pd.all():
        trace = _rows_or_nan(np.linalg.solve, sigma, s).trace(axis1=1, axis2=2)
    else:
        trace = np.full(k, np.nan)
        if pd.any():
            trace[pd] = _rows_or_nan(np.linalg.solve, sigma[pd], s).trace(axis1=1, axis2=2)
    f = np.maximum(0.0, ld_sigma - ld_s + trace - p)
    fault = SIGMA_NOT_PD * np.isnan(f)
    if k < len(thetas):
        # widen to every row; (I - A) was singular at the rows not in ok
        f_ok, fault_ok = f, fault
        f = np.full(len(thetas), np.nan)
        fault = np.full(len(thetas), SINGULAR_STRUCTURE)
        f[ok], fault[ok] = f_ok, fault_ok
    return fault, f, (g_mat, c_mat, sigma)


def _raise_fault(code):
    """The domain error a row's fault code stands for; none for 0."""
    if code == SINGULAR_STRUCTURE:
        raise SingularStructure("(I - A) is numerically singular")
    if code == SIGMA_NOT_PD:
        raise NotPositiveDefinite("sigma_theta")


def _evaluate_one(model, theta, s, ld_s):
    """:func:`evaluate_stack` at one parameter vector: F and the one-row
    stacks of ``(G, GSG', Sigma)`` there, or the domain error of its fault."""
    fault, f, implied = evaluate_stack(model, as_theta(model, theta)[None], s, ld_s)
    _raise_fault(fault[0])
    return float(f[0]), implied


def f_ml(model: ModelSpec, theta, s) -> float:
    """ML discrepancy between a covariance s and the model-implied Sigma(theta):

        F = ln|Sigma| - ln|s| + tr(s Sigma^-1) - p

    Nonnegative, zero iff Sigma(theta) = s.  Raises
    :class:`NotPositiveDefinite` naming whichever of ``s`` or ``Sigma(theta)``
    fails its Cholesky factorization (or, for Sigma, its solve), and
    :class:`SingularStructure` when (I - A) is numerically singular.
    """
    s = np.asarray(s, dtype=float)
    return _evaluate_one(model, theta, s, _logdet_s(s))[0]


def f_ml_stack(model: ModelSpec, thetas, s, *, ld_s: float | None = None) -> np.ndarray:
    """:func:`f_ml` at every row of a ``(k, q)`` stack of parameter vectors.

    Returns a ``(k,)`` array holding NaN wherever :func:`f_ml` raises a
    domain error for that row; the other rows equal :func:`f_ml` bit for
    bit.  ``ld_s`` is ln|s|, passed by callers that evaluate against one s
    many times; without it s is factored here, raising
    :class:`NotPositiveDefinite` for an s that is not positive definite.
    """
    s = np.asarray(s, dtype=float)
    if ld_s is None:
        ld_s = _logdet_s(s)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.q:
        raise ValueError(f"parameter stack must have shape (k, {model.q}), got {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("parameter vectors must be finite")
    return evaluate_stack(model, thetas, s, ld_s)[1]


def _grad_from_implied(model, s, g_mat, c_mat, sigma):
    """Gradient of F from the implied matrices at one point where Sigma is
    invertible, or from ``(k, ., .)`` stacks of them at k such points (then
    ``(k, q)``).  The terms of the free entries that share a parameter add
    up with one ``np.bincount``, in :attr:`~fungible.model.ModelSpec._free`
    order and from 0.0."""
    p = model.n_observed
    sigma_inv = np.linalg.inv(sigma)
    w = sigma_inv @ (sigma - s) @ sigma_inv
    w = 0.5 * (w + w.swapaxes(-1, -2))
    g_obs = g_mat[..., :p, :]                  # F G
    # G S G' F' W F G, whose transpose the A entries read, and G' F' W F G,
    # side by side
    m = model.m
    lead = g_mat.shape[:-2]
    both = np.concatenate([
        (c_mat[..., :, :p] @ w @ g_obs).reshape(lead + (m * m,)),
        (g_obs.swapaxes(-1, -2) @ w @ g_obs).reshape(lead + (m * m,)),
    ], axis=-1)
    params, flat, factor = model._gradient_gather
    terms = factor * both.take(flat, axis=-1)
    if terms.ndim == 1:
        return np.bincount(params, terms, minlength=model.q)
    k, q = len(terms), model.q
    bins = (params + q * np.arange(k)[:, None]).ravel()  # row r's parameters at r*q + params
    return np.bincount(bins, terms.ravel(), minlength=k * q).reshape(k, q)


def gradient(model: ModelSpec, theta, s) -> np.ndarray:
    """Analytic gradient of :func:`f_ml` in theta (chain rule through the
    RAM structure); raises the domain errors :func:`f_ml` raises."""
    s = np.asarray(s, dtype=float)
    implied = _evaluate_one(model, theta, s, _logdet_s(s))[1]
    return _grad_from_implied(model, s, *(mat[0] for mat in implied))


def hessian(model: ModelSpec, theta, s) -> np.ndarray:
    """Hessian of :func:`f_ml` by central finite differences of the analytic
    gradient, step 1e-5 * max(1, |theta_i|) per coordinate, symmetrized.

    The 2q gradients at theta + h_i e_i and theta - h_i e_i are one stacked
    evaluation.  Where some of those points leave the domain, raises the
    error :func:`gradient` raises at the first of them in the order
    +e_1, -e_1, +e_2, -e_2, ...
    """
    s = np.asarray(s, dtype=float)
    ld_s = _logdet_s(s)
    theta = as_theta(model, theta)
    h = 1e-5 * np.maximum(1.0, np.abs(theta))
    points = np.empty((2 * model.q, model.q))
    points[0::2] = theta + np.diag(h)
    points[1::2] = theta - np.diag(h)
    fault, _, implied = evaluate_stack(model, points, s, ld_s)
    faulted = np.flatnonzero(fault)
    if len(faulted):
        _raise_fault(fault[faulted[0]])
    grads = _grad_from_implied(model, s, *implied)
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
