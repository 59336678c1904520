"""Maximum likelihood fitting of covariance-structure models.

A hand-rolled quasi-Newton loop (BFGS secant updates on the inverse Hessian,
backtracking Armijo line search) minimizes the ML discrepancy.  Steps that
lose positive definiteness of the implied covariance are rejected by the
line search rather than penalized, so the objective stays the exact ML
discrepancy.

Each line-search trial is a one-row evaluation of the discrepancy kernel
(:func:`~fungible.discrepancy.evaluate_stack`): F is NaN at a trial that
leaves the domain, which fails the Armijo test as an infinite F would, and
an accepted trial's implied matrices give its gradient, so an accepted step
costs one evaluation of the model.  S is checked by the one covariance
rule, :func:`~fungible.model.as_cov`, and factored once per minimization.
The Hessian at the optimum is one stacked evaluation of its 2q gradients
(:func:`~fungible.discrepancy.hessian`).
Against the fit's S, F has two stacked forms.
:meth:`FitResult.focal_objectives` is the one the contour engine calls: F on
the plane through theta-hat along the focal parameters, from offsets of
those parameters (:class:`~fungible.discrepancy.FocalPlane`; a polynomial
form on single-step models, the kernel on any other).
:meth:`FitResult.objectives` is the kernel itself at any ``(k, q)`` stack,
bit for bit :func:`~fungible.discrepancy.f_ml` at each row: ``fungible
fpe`` reports it at the contour points, and the tests hold the plane form
to it.

A step costs little arithmetic and many numpy calls: on a 2-core Xeon VM a
one-row evaluation takes about 30 us and its gradient about 18 us, almost
all of it per-call overhead, and a fit of the builtin conditions' model
(q = 14, about 26 iterations) takes about 2.2 ms.  So the BFGS update uses
the cheapest calls that give the same bits: ``ndarray.dot`` for products
and norms, and broadcasting for the outer products.

There are no parameter bounds: improper solutions (negative unique
variances) are reported via ``FitResult.improper``, not prevented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discrepancy import (
    FocalPlane,
    _analyzed,
    _grad_from_implied,
    _raise_fault,
    evaluate_stack,
    hessian,
    rmsea_from_f,
)
from .errors import NoConvergence
from .model import ModelSpec, _frozen_array, as_int, check_focal


STALL_TOL = 1e-12  # the loop stops once f changes by at most this, relative


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 500
    grad_tol: float = 1e-6


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


def fit_ml(model: ModelSpec, s, n: int | None = None, opts: FitOptions | None = None) -> FitResult:
    """Minimize the ML discrepancy of ``model`` against covariance ``s``.

    The search starts at ``model.start``, or at ``model.default_start(s)``
    when the model has none.  Convergence is declared at gradient max-norm
    < ``opts.grad_tol``; the loop also stops when the relative change in f
    drops below :data:`STALL_TOL`.
    Raises :class:`NoConvergence` after ``opts.max_iter`` iterations, the
    errors of :func:`~fungible.model.as_cov` for an ``s`` that fails its
    check, and :class:`ValueError` for an ``n`` that is not an integer
    (:func:`~fungible.model.as_int`) of at least 2.
    """
    opts = opts or FitOptions()
    s, ld_s = _analyzed(model, s)
    if n is not None:
        n = as_int(n, "n")
        if n < 2:
            raise ValueError("n must be at least 2")
    theta = model.default_start(s) if model.start is None else model.start.copy()

    ok, f_row, implied = evaluate_stack(model, theta[None], s, ld_s)
    _raise_fault(ok, np.isnan(f_row))
    f = float(f_row[0])
    g = _grad_from_implied(model, s, *(mat[0] for mat in implied))
    f_trace = [f]
    q = model.q
    eye = np.eye(q)
    h_inv = eye.copy()
    g_max = float(np.abs(g).max())
    iterations = 0
    converged = g_max < opts.grad_tol
    reset_used = False

    while not converged:
        if iterations >= opts.max_iter:
            raise NoConvergence(iterations, g_max)
        iterations += 1

        direction = -h_inv.dot(g)
        if float(direction.dot(g)) >= 0.0:
            h_inv = eye.copy()
            direction = -g
        slope = float(g.dot(direction))

        step = 1.0
        accepted = False
        for _ in range(60):
            candidate = theta + step * direction
            f_row, implied = evaluate_stack(model, candidate[None], s, ld_s)[1:]
            f_new = float(f_row[0])  # NaN where the trial leaves the domain
            if f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if not reset_used:
                # retry once along steepest descent before giving up
                reset_used = True
                h_inv = eye.copy()
                continue
            break

        g_new = _grad_from_implied(model, s, *(mat[0] for mat in implied))
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
        if g_max < opts.grad_tol:
            converged = True
            break
        if stalled:
            break

    h_opt = hessian(model, theta, s)
    improper = bool(np.any(theta[model.variance_param_mask] < 0))
    return FitResult(
        model=model,
        s=s,
        n=n,
        theta_hat=theta,
        f_hat=f,
        grad_norm=g_max,
        hessian_at_opt=h_opt,
        iterations=iterations,
        converged=converged,
        improper=improper,
        f_trace=tuple(f_trace),
    )


def population_rmsea(model: ModelSpec, sigma_pop) -> float:
    """Population misfit of a model against a population covariance:
    sqrt(F0/df) where F0 is the minimized ML discrepancy and df the model's."""
    result = fit_ml(model, sigma_pop, n=None)
    return rmsea_from_f(result.f_hat, model.df, population=True)
