"""Math core: ML discrepancy with derivatives, RMSEA conversions, and
chi-square quantiles at integer df from the closed-form (finite-sum) tail.

F comes from one body, :func:`_f_stack`: ln|M| + tr(M^-1 N) plus two
constants, clamped at 0, NaN where M fails its Cholesky test or its solve
or where that trace is not positive.  The kernel :func:`evaluate_stack`
gives it Sigma and s at every row of a ``(k, q)`` stack of parameter
vectors, and returns every row: the mask of rows whose (I - A)^-1 is
usable, and F and the implied matrices, NaN where a row fails.  The
gradient needs no trace solve.  :func:`f_ml` and :func:`gradient` are
one-row views and raise a NaN row as a domain error, and :func:`hessian`
evaluates its 2q gradient points as one stack.  The stacked evaluator with NaN at faulted rows is
:meth:`~fungible.fit.FitResult.objectives`, against a fit's analyzed
covariance.  Contours evaluate F only on a focal plane through a fit's
theta-hat, where the non-focal parameters stay put: on a single-step
model, :class:`FocalPlane` expands Sigma there once as a polynomial in the
focal offsets (:func:`~fungible.model.plane_polynomial`), and gives the
body the Schur complement K of the rows whose entries move, and its
partner N, in place of Sigma and s, as polynomials too, within a few
1e-13 relative of the kernel.  Where K is 1 x 1, as on the default
gamma1/gamma2 plane, the body takes sqrt(K) and N / K, the bits of
LAPACK's factor and solve, so a call makes no matrix product and no
LAPACK call.  Any other
plane is the kernel itself.  Every entry point checks the analyzed
covariance s by the one rule of :func:`~fungible.model.as_cov` and takes
ln|s| from its Cholesky factor.

All functions are pure and reentrant.  Positive definiteness is always
established by attempting a Cholesky factorization; there is no eigenvalue
thresholding.  Cholesky factors, solves and inverses come from numpy.linalg's
LAPACK gufuncs, called directly (imported in :mod:`fungible.model`): at these
sizes numpy.linalg's Python wrappers cost more than the LAPACK calls, and a
stacked gufunc call returns NaN for each matrix that fails where numpy.linalg
raises for the whole stack.  Each kernel call enters ``np.errstate`` once.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import NotPositiveDefinite, SingularStructure
from .model import (
    ModelSpec,
    _cholesky,
    _inv,
    _lu_solve,
    as_cov,
    as_int,
    as_theta,
    implied_stack,
    plane_polynomial,
    sigma_of_theta,
    sum_by_monomial,
)

__all__ = [
    "f_ml",
    "gradient",
    "hessian",
    "rmsea_from_f",
    "f_from_rmsea",
    "chisq_quantile",
]

def _log_det(chol):
    """ln|M| from the Cholesky factor of M, or per matrix of a stack of
    factors; NaN where M failed its factorization."""
    n = chol.shape[-1]
    # the factors' diagonals, as a strided view
    return 2.0 * np.log(chol.reshape(chol.shape[:-2] + (n * n,))[..., :: n + 1]).sum(axis=-1)


def _analyzed(model: ModelSpec, s):
    """The analyzed covariance s as :func:`~fungible.model.as_cov` returns
    it for the model's p, and ln|s| from its Cholesky factor."""
    s, chol = as_cov(s, model.n_observed)
    return s, float(_log_det(chol))


def _f_stack(m, n, ld_const, tr_const):
    """ln|M| + ld_const + tr(M^-1 N) + tr_const per M of a ``(k, d, d)``
    stack against one N or a stack, clamped at 0 for F-hat at rounding
    level; NaN where M fails its Cholesky test or its solve, or where the
    trace is not positive (for positive definite M and N it is positive: a
    nonpositive one is a solve lost next to the positive definite edge).
    Every row is solved on its own.  Where d is 1 the Cholesky factor is
    sqrt(M) and the solve N / M: for one entry LAPACK's potrf and getrs
    compute exactly these, so the bits are the same with no LAPACK call.
    Where potrf fails there, so does F: sqrt gives NaN for M < 0 or NaN,
    and at M = 0 ln|M| is -inf against a trace of +inf (F NaN), -inf or
    NaN.  Runs under its caller's errstate."""
    if m.shape[-1] == 1:
        m = m[:, 0, 0]
        log_det, trace = 2.0 * np.log(np.sqrt(m)), n[..., 0, 0] / m
    else:
        log_det, trace = _log_det(_cholesky(m)), _lu_solve(m, n).trace(axis1=1, axis2=2)
    trace[trace <= 0.0] = np.nan  # a NaN trace gives NaN anyway
    return np.maximum(0.0, log_det + ld_const + trace + tr_const)


def evaluate_stack(model: ModelSpec, thetas, s, ld_s):
    """F against s, given ln|s|, at every row of a validated ``(k, q)`` stack.

    Returns ``(ok, f, implied)``, each row for row with the stack:
    :func:`~fungible.model.implied_stack`'s mask of the rows whose
    (I - A)^-1 is usable; F, NaN where ``ok`` is false or Sigma fails
    :func:`_f_stack`'s tests; the ``(G, GSG', Sigma)`` stacks, NaN where
    ``ok`` is false.

    A one-row call costs about 27-30 us on a 2-core Xeon VM, mostly numpy's
    per-call overhead; the cost per row falls to about 2.2 us in stacks of
    64 rows, so a lockstep fit evaluates all its rows' trials at once.
    """
    with np.errstate(all="ignore"):  # a failing matrix comes back as NaN
        ok, g_mat, c_mat, sigma = implied_stack(model, thetas)
        f = _f_stack(sigma, s, -ld_s, -model.n_observed)
    return ok, f, (g_mat, c_mat, sigma)


class FocalPlane:
    """F against s, given ln|s|, on the plane through theta_hat along the
    focal parameters: calling it on a ``(k, len(focal))`` stack of offsets
    of those parameters gives F at theta_hat + delta for every row delta,
    NaN where F is undefined.  Raises :class:`SingularStructure` when
    (I - A) is singular at theta_hat.

    On a single-step model, Sigma on that plane is a polynomial in the
    offsets (:func:`~fungible.model.plane_polynomial`), and an entry moves
    where a coefficient past the constant term is nonzero.  R is every
    observed row whose diagonal does not move and which shares no moving
    entry with another such row, J every other observed row: so Sigma_RR
    is the constant term exactly (its inverse and ln|Sigma_RR| taken once)
    and the blocks of s are fixed.  Where J is not empty, the partitioned
    determinant and inverse (D. A. Harville, *Matrix Algebra From a
    Statistician's Perspective*, 1997, ch. 13) give

        F = ln|Sigma_RR| + ln|K| - ln|s| + tr(s_RR Sigma_RR^-1) + tr(K^-1 N) - p,

    with W = Sigma_RR^-1 Sigma_RJ, the |J| x |J| Schur complement
    K = Sigma_JJ - Sigma_JR W and N = s_JJ - s_JR W - W's_RJ + W's_RR W.
    Sigma_RR being positive definite, Sigma is exactly where K is, and F is
    :func:`_f_stack` of K and N, so only K is factored and solved.  K and N
    are polynomials too, of degree at most max(deg Sigma_JJ,
    2 deg Sigma_JR): two quadratics for paths alone, such as the default
    gamma1/gamma2.  Their coefficients are expanded once at construction,
    and the monomials whose coefficients are exactly zero are dropped.  A
    call evaluates the monomials at each row and sums them against the
    coefficients elementwise, in one order whatever the stack, so a row's
    F does not depend on the rows beside it; where J is one row, x6 for
    gamma1/gamma2, :func:`_f_stack` then takes no LAPACK call.  F lies
    within a few 1e-13 relative of :func:`evaluate_stack`'s (2.1e-13
    measured over every focal pair of the single-step test models).

    Any other plane, of a model with longer paths or one where no entry of
    Sigma moves, is :func:`evaluate_stack` at theta_hat + delta, the bits of
    :meth:`~fungible.fit.FitResult.objectives`.

    The polynomial planes of fits of one model along the same focal
    parameters share their monomials and rows J, and :meth:`stack` stacks
    them along a fit axis, a fit's own plane being the one-fit stack.  A
    stack's call takes, besides the offsets, each row's index into its
    fits, gathers that fit's coefficients and constants per row and sums
    them in its own plane's order, so each row has the F of its fit's plane
    (a NaN's sign bit aside).
    """

    def __init__(self, model: ModelSpec, theta_hat, focal, s, ld_s):
        theta_hat = as_theta(model, theta_hat)
        if model.single_step:
            monomials, sigma = plane_polynomial(model, theta_hat, focal)
            # R, the rows whose block Sigma_RR stays put, as above
            moving = sigma[1:].any(axis=0)
            still = ~moving.diagonal()
            outside = still & ~(moving & still).any(axis=1)
        self._polynomial = model.single_step and not outside.all()
        if not self._polynomial:
            sigma_of_theta(model, theta_hat)  # raises where (I - A) is singular
            self._model, self._theta_hat, self._focal = model, theta_hat, list(focal)
            self._s, self._ld_s = s, ld_s
            return
        moved, rest = np.flatnonzero(~outside), np.flatnonzero(outside)
        sigma_rr, s_rr = sigma[0][rest][:, rest], s[rest][:, rest]
        rows = sigma[:, moved]
        x, sigma_jj = rows[:, :, rest], rows[:, :, moved]  # Sigma_JR, Sigma_JJ
        with np.errstate(all="ignore"):  # a failing matrix comes back as NaN
            inv_rr = _inv(sigma_rr)
            ld_rr = float(_log_det(_cholesky(sigma_rr)))
            w = inv_rr @ x.swapaxes(1, 2)  # W's coefficients
            s_w = s[moved][:, rest] @ w
            # the products of Sigma_JR's nonzero coefficients, each at the
            # product of their monomials
            used = np.flatnonzero(x.reshape(len(x), -1).any(axis=1)).tolist()
            keys = monomials + [monomials[a] + monomials[b] for a in used for b in used]
            x, w = x[used], w[used]
            # each term's K and N parts: Sigma_JJ and -s_JR W - W's_RJ
            # (s_JJ at 1), then -Sigma_JR W and W's_RR W
            terms = np.empty((len(keys), 2) + sigma_jj.shape[1:])
            terms[: len(monomials), 0] = sigma_jj
            terms[: len(monomials), 1] = -(s_w + s_w.swapaxes(1, 2))
            terms[0, 1] += s[moved][:, moved]
            pairs = terms[len(monomials) :].reshape((len(used), len(used)) + terms.shape[1:])
            pairs[:, :, 0] = -(x[:, None] @ w[None])
            pairs[:, :, 1] = w.swapaxes(1, 2)[:, None] @ s_rr @ w[None]
            keys, coef = sum_by_monomial(keys, terms)
        # the constant terms, split so that where R is empty F adds up as
        # in evaluate_stack; a stack holds one per fit
        self._ld_const = ld_rr - ld_s
        self._tr_const = float(np.sum(s_rr * inv_rr.T)) - model.n_observed
        coef = coef.reshape(len(keys), -1)
        nonzero = coef.any(axis=1)
        # the coefficients with a fit axis, last: one fit here
        self._coef, self._moved = coef[nonzero][:, :, None], moved
        # each kept monomial's focal positions, padded to one length with
        # the position of a row of ones; N's constant term is never 0
        kept = [key for key, keep in zip(keys, nonzero.tolist()) if keep]
        width, ones = max(1, len(kept[-1])), len(focal)
        self._positions = np.array([key + (ones,) * (width - len(key)) for key in kept]).T

    @classmethod
    def stack(cls, planes):
        """The polynomial planes of fits of one model along the same focal
        parameters, stacked along a fit axis: a plane whose call takes each
        row's index into ``planes``.  The coefficients and constants of
        every fit sit side by side, so a row is summed exactly as on its
        fit's own plane, the one-fit stack.  Returns the plane itself for
        one plane, and None where the planes do not all share their
        monomials and moved rows (or one is the kernel)."""
        first = planes[0]
        if len(planes) == 1:
            return first if isinstance(first, cls) else None
        if not all(isinstance(plane, cls) and plane._polynomial for plane in planes):
            return None
        if not all(np.array_equal(plane._positions, first._positions)
                   and np.array_equal(plane._moved, first._moved) for plane in planes):
            return None
        stacked = object.__new__(cls)
        stacked.__dict__.update(first.__dict__)
        stacked._coef = np.concatenate([plane._coef for plane in planes], axis=-1)
        stacked._ld_const = np.array([plane._ld_const for plane in planes])
        stacked._tr_const = np.array([plane._tr_const for plane in planes])
        return stacked

    def _blocks(self, offsets, coef=None):
        """``(K, N)`` at the offsets, from their polynomials with the
        coefficients ``coef``, one fit's or one per row (the plane's own
        where None).  Runs under its caller's errstate."""
        k, n_j = len(offsets), len(self._moved)
        # each monomial at every row: the product of its positions' rows,
        # taken from the last position to the first
        padded = np.empty((offsets.shape[1] + 1, k))
        padded[:-1] = offsets.T
        padded[-1] = 1.0
        factors = padded.take(self._positions, axis=0)
        terms = factors[-1]
        for factor in factors[-2::-1]:
            terms *= factor
        # summed over the monomials, the first axis: the same order of
        # additions at every row
        blocks = ((self._coef if coef is None else coef) * terms[:, None, :]).sum(axis=0)
        blocks = blocks.reshape(2, n_j, n_j, k).transpose(0, 3, 1, 2)
        return blocks[0], blocks[1]

    def __call__(self, offsets, fit=None):
        if not self._polynomial:
            thetas = np.repeat(self._theta_hat[None], len(offsets), axis=0)
            thetas[:, self._focal] += offsets
            return evaluate_stack(self._model, thetas, self._s, self._ld_s)[1]
        coef, ld_const, tr_const = self._coef, self._ld_const, self._tr_const
        if coef.shape[-1] > 1:  # a stack: each row's own fit's
            coef, ld_const, tr_const = (coef.take(fit, axis=-1), ld_const.take(fit),
                                        tr_const.take(fit))
        with np.errstate(all="ignore"):  # a failing matrix comes back as NaN
            return _f_stack(*self._blocks(offsets, coef), ld_const, tr_const)


def _fault(ok, bad):
    """The domain error of a stack's first ``bad`` row, None where no row
    is bad: where :func:`~fungible.model.implied_stack`'s ``ok`` is false
    there, (I - A) is singular, else Sigma is not positive definite."""
    if bad.any():
        if not ok[bad.argmax()]:
            return SingularStructure("(I - A) is numerically singular")
        return NotPositiveDefinite("sigma_theta")


def f_ml(model: ModelSpec, theta, s) -> float:
    """ML discrepancy between a covariance s and the model-implied Sigma(theta):

        F = ln|Sigma| - ln|s| + tr(s Sigma^-1) - p

    Nonnegative, zero iff Sigma(theta) = s.  Raises the errors of
    :func:`~fungible.model.as_cov` for an s that fails its check,
    :class:`NotPositiveDefinite` ``("sigma_theta")`` when Sigma(theta) fails
    its Cholesky factorization or its solve or tr(s Sigma^-1) is not
    positive, and :class:`SingularStructure` when (I - A) is numerically
    singular.
    """
    ok, f, _ = evaluate_stack(model, as_theta(model, theta)[None], *_analyzed(model, s))
    if error := _fault(ok, np.isnan(f)):
        raise error
    return float(f[0])


def _grad_from_implied(model, s, g_mat, c_mat, sigma):
    """Gradient of F from the implied matrices at one point, or from
    ``(k, ., .)`` stacks of them at k points (then ``(k, q)``); NaN where
    Sigma is singular, met only under :func:`_gradients`' errstate (F's
    trace solve factors Sigma by the same LU).  The terms of the free
    entries that share a parameter add up with one ``np.bincount``, in
    :attr:`~fungible.model.ModelSpec._free` order and from 0.0."""
    p = model.n_observed
    sigma_inv = _inv(sigma)
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
    # the one-point form is a lockstep round's with one accepted row, so
    # every step of fit_ml's: through one-row stacks, fit_ml of the builtin
    # conditions' model read 8-9% slower than before the lockstep driver,
    # and within 0.5% of it with this form (paired, on a 2-core Xeon VM)
    if terms.ndim == 1:
        return np.bincount(params, terms, minlength=model.q)
    k, q = len(terms), model.q
    bins = (params + q * np.arange(k)[:, None]).ravel()  # row r's parameters at r*q + params
    return np.bincount(bins, terms.ravel(), minlength=k * q).reshape(k, q)


def _gradients(model, thetas, s):
    """Gradients of F at every row of a validated stack against s (one, or
    one per row), with no trace solve, and the masks for :func:`_fault`
    of the rows' ``ok`` and of those that have no gradient."""
    with np.errstate(all="ignore"):  # a failing matrix comes back as NaN
        ok, g_mat, c_mat, sigma = implied_stack(model, thetas)
        not_pd = np.isnan(_log_det(_cholesky(sigma)))
        grads = _grad_from_implied(model, s, g_mat, c_mat, sigma)
    return grads, ok, not_pd | np.isnan(grads).any(axis=1)


def gradient(model: ModelSpec, theta, s) -> np.ndarray:
    """Analytic gradient of :func:`f_ml` in theta (chain rule through the
    RAM structure).  Raises the errors of :func:`~fungible.model.as_cov`
    for an s that fails its check, :class:`SingularStructure` when (I - A)
    is numerically singular, and :class:`NotPositiveDefinite`
    ``("sigma_theta")`` when Sigma(theta) fails its Cholesky test or the
    gradient comes out NaN.  It makes no trace solve, so it does not test
    the sign of tr(s Sigma^-1) as :func:`f_ml` does: next to the positive
    definite edge it can return a gradient where :func:`f_ml` raises."""
    s = as_cov(s, model.n_observed)[0]
    grads, ok, bad = _gradients(model, as_theta(model, theta)[None], s)
    if error := _fault(ok, bad):
        raise error
    return grads[0]


def hessian(model: ModelSpec, theta, s) -> np.ndarray:
    """Hessian of :func:`f_ml` by central finite differences of the analytic
    gradient, step 1e-5 * max(1, |theta_i|) per coordinate, symmetrized.

    The 2q gradients at theta + h_i e_i and theta - h_i e_i are one stacked
    evaluation.  Where some of those points leave the domain, raises the
    error :func:`gradient` raises at the first of them in the order
    +e_1, -e_1, +e_2, -e_2, ...
    """
    s = as_cov(s, model.n_observed)[0]
    h_mat, ok, bad = _hessian_stack(model, as_theta(model, theta)[None], s[None])
    if error := _fault(ok[0], bad[0]):
        raise error
    return h_mat[0]


def _hessian_stack(model, thetas, s):
    """:func:`hessian` at each row of a ``(k, q)`` stack against its own s,
    as one evaluation of every row's 2q points: the Hessians and the
    points' ``(k, 2q)`` masks for :func:`_fault`."""
    k, q = thetas.shape
    h = 1e-5 * np.maximum(1.0, np.abs(thetas))
    steps = h[:, :, None] * np.eye(q)  # each row's np.diag(h)
    points = np.empty((k, 2 * q, q))
    points[:, 0::2] = thetas[:, None] + steps
    points[:, 1::2] = thetas[:, None] - steps
    grads, ok, bad = _gradients(model, points.reshape(-1, q), np.repeat(s, 2 * q, axis=0))
    grads = grads.reshape(k, 2 * q, q)
    h_mat = ((grads[:, 0::2] - grads[:, 1::2]) / (2.0 * h)[:, :, None]).swapaxes(1, 2)
    return 0.5 * (h_mat + h_mat.swapaxes(1, 2)), ok.reshape(k, -1), bad.reshape(k, -1)


# ---------------------------------------------------------------------------
# RMSEA conversions


def rmsea_from_f(f: float, df: int, n: int | None = None, *, population: bool = False) -> float:
    """RMSEA from a discrepancy value.

    Population mode: sqrt(f/df).  Sample mode: sqrt(max(f/df - 1/(n-1), 0)),
    the (n-1)-convention noncentrality rescaling (truncated at zero).  The
    counts df and n follow :func:`~fungible.model.as_int`'s rule.
    """
    if as_int(df, "df") < 1:
        raise ValueError("df must be at least 1")
    if f < 0:
        raise ValueError("f must be nonnegative")
    if population:
        return math.sqrt(f / df)
    if n is None or as_int(n, "n") < 2:
        raise ValueError("sample mode needs n >= 2")
    return math.sqrt(max(f / df - 1.0 / (n - 1), 0.0))


def f_from_rmsea(epsilon: float, df: int, n: int | None = None, *, population: bool = False) -> float:
    """Exact inverse of :func:`rmsea_from_f` on the non-truncated branch."""
    if as_int(df, "df") < 1:
        raise ValueError("df must be at least 1")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if population:
        return df * epsilon * epsilon
    if n is None or as_int(n, "n") < 2:
        raise ValueError("sample mode needs n >= 2")
    return df * (epsilon * epsilon + 1.0 / (n - 1))


# ---------------------------------------------------------------------------
# Chi-square quantiles from the closed-form tail at integer df


def _chisq_tail(df, x):
    """P(X > x) for X chi-square on an integer df >= 1, and X's density at
    x > 0.  With y = x/2 the tail is a finite sum (Abramowitz & Stegun,
    *Handbook of Mathematical Functions*, 26.4; DLMF 8.4): e^-y y^j / j!
    over j = 0, 1, ..., df/2 - 1 for even df, and erfc(sqrt(y)) plus the
    same terms, Gamma(j + 1) for j!, over j = 1/2, 3/2, ..., df/2 - 1 for
    odd df.  Each term and the density are exponentiated whole, so that at
    large df no factor such as e^-y underflows on its own.  The rounding of
    ln y, taken j times, bounds the tail's error: within 1e-13 up to df
    300 and about 4e-16 df past that (7.7e-13 measured at df 2000)."""
    y = 0.5 * x
    log_y = math.log(y)
    tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    for k in range(df % 2, df - 1, 2):  # k = 2j
        tail += math.exp(0.5 * k * log_y - y - math.lgamma(0.5 * k + 1.0))
    density = 0.5 * math.exp((0.5 * df - 1.0) * log_y - y - math.lgamma(0.5 * df))
    return tail, density


def chisq_quantile(df: int, prob: float) -> float:
    """Quantile of the chi-square distribution on an integer df >= 1.

    Returns x with P(df/2, x/2) = prob, where P is the regularized lower
    incomplete gamma function, within 1e-13 up to df 300 (past that, within
    :func:`_chisq_tail`'s error).  The bound is absolute in P: it solves
    (1 - prob) - tail = 0, where 1 - prob rounds, so a prob below about
    1e-11 has few correct digits (at df 10 and prob 1e-14, x is 21% off).
    Newton steps on that tail from x = df,
    safeguarded inside a maintained bracket, then one Newton step more for
    x's last bits (at df 2, x lies within a few ulps of -2 ln(1 - prob)).
    Raises :class:`ValueError` for a df that is not such an integer or a
    prob outside (0, 1).
    """
    df = as_int(df, "df")
    if df < 1:
        raise ValueError("df must be at least 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must be in (0, 1)")
    # Newton rises from x = df only where the cdf is concave, so it never
    # passes the root from below there: hi is finite at any bisection
    lo, hi, x = 0.0, math.inf, float(df)
    for _ in range(300):
        tail, density = _chisq_tail(df, x)
        err = (1.0 - prob) - tail  # P(df/2, x/2) - prob
        if err > 0.0:
            hi = x
        elif err < 0.0:
            lo = x
        x_new = x - err / density if density > 0.0 else math.nan  # NaN: in no bracket
        if abs(err) <= 1e-13:
            return x_new if lo < x_new < hi else x
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    return x
