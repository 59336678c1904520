"""Maximum likelihood fitting of covariance-structure models.

A hand-rolled quasi-Newton loop (BFGS secant updates on the inverse Hessian,
backtracking Armijo line search) minimizes the ML discrepancy.  Steps that
lose positive definiteness of the implied covariance are rejected by the
line search rather than penalized, so the objective stays the exact ML
discrepancy.  There are no parameter bounds: improper solutions (negative
unique variances) are reported via ``FitResult.improper``, not prevented.

:func:`fit_stack` fits a list of covariances in lockstep, and :func:`fit_ml`
is its one-row view.  Each row is a BFGS generator that yields its
requests and, last, its outcome (the row protocol of :mod:`fungible._solve`).
Each round makes one kernel call at every row's pending point, against the
row's own S (checked by :func:`~fungible.model.as_cov`, factored once): F
is NaN at a trial that leaves the domain, which fails the Armijo test as
an infinite F would, and the implied matrices of the accepted trials give
their gradients in one more call.  The Hessians at the optima are one
stacked evaluation of every row's 2q gradient points.  A step costs little
arithmetic and many numpy calls, so rows that share the calls are cheaper:
on a 2-core Xeon VM a fit of the builtin conditions' model (q = 14, about
26 iterations) takes about 2.0 ms alone, 1.4 ms per fit at 3 rows and
0.9 ms at 20.  The BFGS update uses the cheapest calls that give the same
bits (``ndarray.dot`` for products and norms, broadcasting for the outer
products), and every row is its one-row fit bit for bit.

Against the fit's S, F has two stacked forms.
:meth:`FitResult.focal_objectives` is the one the contour engine calls: F on
the plane through theta-hat along the focal parameters
(:class:`~fungible.discrepancy.FocalPlane`).  :meth:`FitResult.objectives`
is the kernel at any ``(k, q)`` stack, bit for bit
:func:`~fungible.discrepancy.f_ml` at each row: ``fungible fpe`` reports
it, and the tests hold the plane form to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discrepancy import (
    FocalPlane,
    _analyzed,
    _f_stack,
    _fault,
    _grad_from_implied,
    _hessian_stack,
    evaluate_stack,
    rmsea_from_f,
)
from .errors import FungibleError, NoConvergence, NotPositiveDefinite
from .model import ModelSpec, _frozen_array, as_int, check_focal, implied_stack, is_real


STALL_TOL = 1e-12  # the loop stops once f changes by at most this, relative


@dataclass(frozen=True)
class FitOptions:
    """An iteration budget of at least 1 (:func:`~fungible.model.as_int`)
    and a gradient tolerance above 0 (:func:`~fungible.model.is_real`)."""

    max_iter: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self):
        if as_int(self.max_iter, "max_iter") < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not is_real(self.grad_tol) or self.grad_tol <= 0:
            raise ValueError(
                f"grad_tol must be a finite real number above 0, got {self.grad_tol!r}")


@dataclass(frozen=True)
class FitResult:
    """Converged (or stalled) fit of a model to a covariance matrix.

    ``n`` is the sample size used for inference downstream; ``None`` marks a
    population analysis.  ``converged`` holds exactly when the gradient
    max-norm is below the tolerance; a stall on relative f-change with a
    larger gradient is reported as ``converged=False``.
    """

    model: ModelSpec
    s: np.ndarray
    n: int | None
    theta_hat: np.ndarray
    f_hat: float
    grad_norm: float
    hessian_at_opt: np.ndarray
    iterations: int
    converged: bool
    improper: bool
    f_trace: tuple[float, ...]
    # the focal-plane evaluators built so far, by focal tuple.  A plane
    # depends on the model, theta-hat and s, not on n, so the copies that
    # ``dataclasses.replace(fit, n=...)`` makes share this dict
    _focal_planes: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s", _frozen_array(self.s, float))
        object.__setattr__(self, "theta_hat", _frozen_array(self.theta_hat, float))
        object.__setattr__(
            self, "hessian_at_opt", _frozen_array(self.hessian_at_opt, float)
        )
        object.__setattr__(self, "f_trace", tuple(self.f_trace))

    @property
    def df(self) -> int:
        return self.model.df

    @cached_property
    def _ld_s(self) -> float:
        return _analyzed(self.model, self.s)[1]

    def objectives(self, thetas) -> np.ndarray:
        """The ML discrepancy against this fit's analyzed covariance at every
        row of a ``(k, q)`` stack, in one stacked evaluation of the kernel:
        a ``(k,)`` array equal to :func:`~fungible.discrepancy.f_ml` bit for
        bit at each row, NaN where f_ml would raise a domain error.  The
        check of points anywhere in parameter space, such as ``fungible
        fpe``'s ``f_value`` column; contours evaluate
        :meth:`focal_objectives`."""
        thetas = np.asarray(thetas, dtype=float)
        q = self.model.q
        if thetas.ndim != 2 or thetas.shape[1] != q:
            raise ValueError(f"parameter stack must have shape (k, {q}), got {thetas.shape}")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("parameter vectors must be finite")
        return evaluate_stack(self.model, thetas, self.s, self._ld_s)[1]

    def focal_objectives(self, focal) -> FocalPlane:
        """The ML discrepancy against this fit's analyzed covariance on the
        plane through theta-hat along the parameters ``focal``: a callable
        that takes a ``(k, len(focal))`` stack of offsets of those
        parameters and returns F at each row, NaN where
        :func:`~fungible.discrepancy.f_ml` would raise a domain error.  It
        is built once per focal tuple and fit, and shared with the fit's
        copies at other n (:class:`~fungible.discrepancy.FocalPlane`); the
        contour engine evaluates only this form.  Raises what
        :func:`~fungible.model.check_focal` raises."""
        focal = check_focal(focal, self.model.q)
        if focal not in self._focal_planes:
            self._focal_planes[focal] = FocalPlane(
                self.model, self.theta_hat, focal, self.s, self._ld_s
            )
        return self._focal_planes[focal]


_GRADIENT = "gradient"  # a row's request for the gradient at its last point


def _bfgs(theta, opts, eye):
    """One row of :func:`fit_stack`: BFGS from ``theta``.  Yields each point
    to evaluate, the start first, and is sent its F (NaN outside the
    domain), then at the start and at an accepted trial yields
    :data:`_GRADIENT` and is sent the gradient.  Its last yield is its
    outcome: ``(theta, f, g_max, iterations, converged, f_trace)``, None
    where F is NaN at the start, or a :class:`NoConvergence` after
    ``opts.max_iter`` iterations."""
    f = yield theta
    if math.isnan(f):
        yield None
        return
    g = yield _GRADIENT
    f_trace = [f]
    h_inv = eye.copy()
    g_max = float(np.abs(g).max())
    iterations = 0
    reset_used = False

    while not g_max < opts.grad_tol:
        if iterations >= opts.max_iter:
            yield NoConvergence(iterations, g_max)
            return
        iterations += 1

        direction = -h_inv.dot(g)
        if float(direction.dot(g)) >= 0.0:
            h_inv = eye.copy()
            direction = -g
        slope = float(g.dot(direction))

        step = 1.0
        for _ in range(60):
            candidate = theta + step * direction
            f_new = yield candidate
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            if not reset_used:
                # retry once along steepest descent before giving up
                reset_used = True
                h_inv = eye.copy()
                continue
            break

        g_new = yield _GRADIENT
        s_vec = candidate - theta
        y_vec = g_new - g
        sy = float(s_vec.dot(y_vec))
        if iterations == 1 and sy > 0:
            h_inv = (sy / float(y_vec.dot(y_vec))) * eye
        # the norms and outer products as np.linalg.norm and np.outer
        # compute them for 1-d vectors
        if sy > 1e-10 * math.sqrt(s_vec.dot(s_vec)) * math.sqrt(y_vec.dot(y_vec)):
            rho = 1.0 / sy
            v = eye - rho * (s_vec[:, None] * y_vec)
            h_inv = v.dot(h_inv).dot(v.T) + rho * (s_vec[:, None] * s_vec)

        stalled = abs(f - f_new) <= STALL_TOL * max(1.0, abs(f))
        theta, f, g = candidate, f_new, g_new
        f_trace.append(f)
        g_max = float(np.abs(g).max())
        if stalled:
            break
    yield theta, f, g_max, iterations, g_max < opts.grad_tol, f_trace


def fit_stack(model: ModelSpec, covariances, n: int | None = None,
              opts: FitOptions | None = None) -> list:
    """Fit ``model`` to every covariance of ``covariances`` in lockstep: for
    each, the :class:`FitResult` of :func:`fit_ml`, bit for bit, or the
    :class:`~fungible.errors.FungibleError` it raises.  Each round makes
    one kernel call at every row's pending point, against the row's own S
    and ln|S|, and one gradient call at the points accepted; a row leaves
    when it fails its start, converges, stalls or reaches
    ``opts.max_iter``.  The Hessians are one stacked evaluation.  Raises
    the :class:`ValueError` that :func:`fit_ml` raises for its arguments.
    """
    opts = opts or FitOptions()
    n = None if n is None else as_int(n, "n")
    if n is not None and n < 2:
        raise ValueError("n must be at least 2")
    results, index, analyzed = [None] * len(covariances), [], []
    for i, s in enumerate(covariances):
        try:
            analyzed.append(_analyzed(model, s))
            index.append(i)
        except NotPositiveDefinite as exc:
            results[i] = exc
    eye = np.eye(model.q)
    rows = [_bfgs(model.default_start(s) if model.start is None else model.start, opts, eye)
            for s, _ in analyzed]
    trials = [next(row) for row in rows]
    s_all, neg_ld = np.array([s for s, _ in analyzed]), -np.array([ld for _, ld in analyzed])
    live, s_live, ld_live, done = list(range(len(rows))), s_all, neg_ld, []
    tr_const = -model.n_observed
    # a failing matrix comes back as NaN; the rows' BFGS steps run under
    # this errstate too, which one entry per fit keeps off every round
    with np.errstate(all="ignore"):
        while rows:
            ok, *implied = implied_stack(model, np.array(trials))
            f_new = _f_stack(implied[2], s_live, ld_live, tr_const)
            asked, ended = [], []
            for k, f in enumerate(f_new.tolist()):
                trial = trials[k] = rows[k].send(f)
                if trial is _GRADIENT:
                    asked.append(k)
                elif type(trial) is not np.ndarray:
                    ended.append(k)
            if asked:  # one row, by an int, takes the one-point form
                at = asked[0] if len(asked) == 1 else asked
                grads = _grad_from_implied(model, s_live[at], *(mat[at] for mat in implied))
                for k, g in zip(asked, grads if len(asked) > 1 else (grads,)):
                    trial = trials[k] = rows[k].send(g)
                    if type(trial) is not np.ndarray:
                        ended.append(k)
            for k in ended:  # None: F is NaN at the start
                outcome = trials[k] or _fault(ok[k:k + 1], np.isnan(f_new[k:k + 1]))
                if isinstance(outcome, FungibleError):
                    results[index[live[k]]] = outcome
                else:
                    done.append((live[k], outcome))
            if ended:
                going = [k for k in range(len(rows)) if k not in ended]
                live, rows, trials = ([seq[k] for k in going] for seq in (live, rows, trials))
                s_live, ld_live = s_all[live], neg_ld[live]

    if done:
        thetas = np.array([theta for _, (theta, *_) in done])
        h_opt, ok, bad = _hessian_stack(model, thetas, s_all[[j for j, _ in done]])
        for k, (j, (theta, f, g_max, iterations, converged, f_trace)) in enumerate(done):
            fit = FitResult(model, s_all[j], n, theta, f, g_max, h_opt[k], iterations, converged,
                            bool(np.any(theta[model.variance_param_mask] < 0)), f_trace)
            fit.__dict__["_ld_s"] = analyzed[j][1]  # S is checked: its cached ln|S|
            results[index[j]] = _fault(ok[k], bad[k]) or fit
    return results


def fit_ml(model: ModelSpec, s, n: int | None = None, opts: FitOptions | None = None) -> FitResult:
    """Minimize the ML discrepancy of ``model`` against covariance ``s``:
    the one-row :func:`fit_stack`.

    The search starts at ``model.start``, or at ``model.default_start(s)``
    when the model has none.  Convergence is declared at gradient max-norm
    < ``opts.grad_tol``; the loop also stops when the relative change in f
    drops below :data:`STALL_TOL`.
    Raises :class:`NoConvergence` after ``opts.max_iter`` iterations, the
    domain error of a start point or optimum where F or the Hessian is
    undefined, the errors of :func:`~fungible.model.as_cov` for an ``s``
    that fails its check, and :class:`ValueError` for an ``n`` that is not
    an integer (:func:`~fungible.model.as_int`) of at least 2.
    """
    (result,) = fit_stack(model, [s], n, opts)
    if isinstance(result, FungibleError):
        raise result
    return result


def population_rmsea(model: ModelSpec, sigma_pop) -> float:
    """Population misfit of a model against a population covariance:
    sqrt(F0/df) where F0 is the minimized ML discrepancy and df the model's."""
    result = fit_ml(model, sigma_pop, n=None)
    return rmsea_from_f(result.f_hat, model.df, population=True)
