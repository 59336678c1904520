"""Fungible-parameter contours and confidence-set ellipses around a fit.

All operations work in a focal subspace of the free parameters (default two
focal parameters; non-focal parameters stay pinned at theta-hat).  A contour
is the level set {theta : F(theta) = T}; :func:`f_target` maps the three
target definitions (raw-discrepancy offset, RMSEA-scale offset, chi-square
confidence level) to the level T.  Widths are full axis lengths (twice the
half-length), measured either from the focal Hessian block (quadratic
approximation) or by sweeping rays and solving each crossing exactly.

One level rule holds throughout: :func:`f_target` never returns a level
below the fitted discrepancy F-hat, a level T below F-hat raises
:class:`ValueError` elsewhere, and T == F-hat is the degenerate contour (no
ray solved: radius 0, widths 0 along the focal Hessian's eigenvectors,
theta-hat as the point).  Contour points come from one direction sweep,
:func:`sweep_contour`.  Ray roots meet the fixed tolerance :data:`F_TOL` and
refined angles :data:`ANGLE_TOL`.

Every ray solve goes through one lockstep engine: all rays of a call (a
whole sweep, or both golden-section refinements' rays) advance together, one
stacked evaluation of F on the focal plane per step, over a
``(k, len(focal))`` stack of offsets r u from theta-hat, and each ray takes
the iterates its own scalar search would take.  A ray whose root fails gets
a fault code and leaves the others to finish; a sweep raises for any
faulted ray.  The refinement's golden searches,
:func:`~fungible._solve.golden_max`, replay the step-by-step search over a
cache of widths per extremum, evaluating several predicted steps per ray
solve seeded with the swept widths around it; a fault at one search's
angles ends that search alone, and the width raises for it.  A cached
width comes from whichever stacked solve evaluated it, so a ray's radius
must not depend on the rows beside it (a test pins this).  For a :class:`~fungible.fit.FitResult` that
evaluation is :meth:`~fungible.fit.FitResult.focal_objectives`, the
focal-plane evaluator :class:`~fungible.discrepancy.FocalPlane`: on a
single-step model it factors only the Schur complement K of the rows of
Sigma the focal parameters move (one row for gamma1/gamma2: K is 1 x 1,
with no LAPACK call), with K and N polynomials in the focal offsets, its
rows within a few 1e-13 of :func:`~fungible.discrepancy.f_ml`'s,
relative; on longer paths it is the discrepancy kernel itself.  On the
ROADMAP Baseline fit (Sigma1, eps .03, N = 200; eps_tilde target; 2-core
Xeon VM, one BLAS thread), a 90-direction width makes 18 stacked calls
over about 1,350 rows and a 360-direction width 18 over about 2,570; the
evaluator is about 0.30 of either, the rest this engine's own numpy and
Python work.

These functions only use ``theta_hat``, ``f_hat``, ``n``, ``hessian_at_opt``
and ``focal_objectives(focal)`` from the fit argument, and
:func:`f_target`'s ``eps_tilde`` mode also ``df``, so any object exposing
those (e.g. a test surrogate) works in place of a
:class:`~fungible.fit.FitResult`.  Each of them is required.
``focal_objectives(focal)`` returns a callable that takes a
``(k, len(focal))`` stack of offsets of the focal parameters from theta-hat
(the other parameters pinned there) and returns F for each row, NaN where F
is undefined; the engine asks for it once per contour and evaluates only
this form.
``hessian_at_opt`` seeds every ray and gives the degenerate contour's axes;
a stand-in with no curvature to offer may declare a zero matrix, which
seeds every ray at radius 1 and keeps the coordinate axes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._solve import UNDEFINED, bracket_level, bracketed_root, golden_max
from .discrepancy import chisq_quantile, f_from_rmsea, rmsea_from_f
from .errors import ContourEscapesDomain, NotPositiveDefinite
from .model import as_int, check_focal

DELTA_F = "delta_f"
EPS_TILDE = "eps_tilde"
CONFIDENCE = "confidence"
_MODES = (DELTA_F, EPS_TILDE, CONFIDENCE)
SCALINGS = ("likelihood", "raw", "relative")  # of the delta_f offset
N_DIRECTIONS = 360  # rays per contour sweep unless a caller says otherwise

F_TOL = 1e-9  # every ray root: |F - T| <= F_TOL
ANGLE_TOL = 1e-6  # golden refinement of the extremal width angles, radians


def _is_real(value) -> bool:
    """A finite real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class ContourTarget:
    """How the contour level is defined.

    ``delta_f`` mode offsets the minimized discrepancy; three scalings:

    - ``likelihood`` (default): T = F + 2 delta_f / (N - 1), a fixed drop on
      the log-likelihood scale, so widths shrink like 1/sqrt(N - 1);
    - ``raw``: T = F + delta_f, sample-size independent;
    - ``relative``: T = (1 + delta_f) F, fit at most a fraction delta_f worse
      than the minimum, so widths grow with the misfit carried by F itself.

    ``eps_tilde`` mode offsets the sample RMSEA by ``epsilon_tilde``.
    ``confidence`` mode uses the joint chi-square quantile for the focal
    parameters.
    """

    mode: str = DELTA_F
    delta_f: float = 0.05
    epsilon_tilde: float = 0.005
    confidence: float = 0.95
    scaling: str = "likelihood"

    def __post_init__(self):
        for name in ("mode", "scaling"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("delta_f", "epsilon_tilde", "confidence"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown contour mode {self.mode!r}")
        if self.delta_f < 0 or self.epsilon_tilde < 0:
            raise ValueError("contour offsets must be nonnegative")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.scaling not in SCALINGS:
            raise ValueError(f"unknown delta_f scaling {self.scaling!r}")


@dataclass(frozen=True)
class AxisWidths:
    """Major and minor full widths of a contour in the focal plane."""

    major: float
    minor: float
    major_direction: np.ndarray
    minor_direction: np.ndarray
    focal: tuple[int, ...]
    skipped: int = 0
    partial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "focal", tuple(as_int(i, "focal index") for i in self.focal))
        object.__setattr__(self, "major_direction", np.asarray(self.major_direction, float))
        object.__setattr__(self, "minor_direction", np.asarray(self.minor_direction, float))
        if not (self.major >= self.minor >= 0.0):
            raise ValueError("axis widths must satisfy major >= minor >= 0")


def f_target(target: ContourTarget, fit, *, n_focal: int = 2) -> float:
    """Discrepancy level T defining the contour {theta : F(theta) = T},
    never below F-hat: a level that rounds below the minimum (a zero
    ``eps_tilde`` offset can) is the degenerate contour T == F-hat.
    ``eps_tilde`` mode reads the model's degrees of freedom from ``fit.df``."""
    f_hat = fit.f_hat
    if target.mode == DELTA_F and target.scaling == "raw":
        level = f_hat + target.delta_f
    elif target.mode == DELTA_F and target.scaling == "relative":
        level = f_hat * (1.0 + target.delta_f)
    elif fit.n is None:
        what = "likelihood-scaled delta_f" if target.mode == DELTA_F else f"{target.mode} mode"
        raise ValueError(f"{what} needs a sample size")
    elif target.mode == DELTA_F:
        level = f_hat + 2.0 * target.delta_f / (fit.n - 1)
    elif target.mode == EPS_TILDE:
        eps_hat = rmsea_from_f(f_hat, fit.df, fit.n)
        level = f_from_rmsea(eps_hat + target.epsilon_tilde, fit.df, fit.n)
    else:
        level = f_hat + chisq_quantile(n_focal, target.confidence) / (fit.n - 1)
    return max(level, f_hat)


def _units(angles):
    cos, sin = np.cos(angles), np.sin(angles)
    norm = np.sqrt(cos * cos + sin * sin)  # np.linalg.norm's arithmetic per row
    return np.column_stack([cos / norm, sin / norm])


def _embed(fit, units, focal):
    u_full = np.zeros((len(units), np.size(fit.theta_hat)))
    u_full[:, list(focal)] = units
    return u_full


def _level_offset(fit, t_target):
    """The level rule of every contour function: c = T - F-hat, raising
    when T lies below the minimum; c == 0 is the degenerate contour."""
    c = t_target - fit.f_hat
    if c < 0:
        raise ValueError("t_target must not be below the fitted discrepancy")
    return c


def _ray_solver(fit, focal, t_target):
    """The ray solve of one contour: ``solve(units)`` returns the radii r > 0
    with F(theta_hat + r u) = t_target along every row u of ``units`` (unit
    focal-plane directions), and a fault code per ray.  What every ray solve
    of the contour shares (the level offset, the focal Hessian block and
    the focal-plane evaluator) is computed once here, so a width's
    refinement does not pay for it per call.

    All rays advance in lockstep, one stacked evaluation of the fit's
    ``focal_objectives(focal)`` per step:
    :func:`~fungible._solve.bracket_level` doubles out from the
    quadratic-approximation radius sqrt(2c / (u H_f u')), or from 1 where
    that curvature is not positive, and bisects back to the domain edge for
    rays that left the evaluable region, then the safeguarded
    secant/bisection root to |F - T| <= :data:`F_TOL`.  A ray
    escapes (radius NaN, fault 0) when the level lies beyond its domain edge
    or is not reached in 90 doublings.  A ray whose root fails has radius NaN
    and a nonzero fault (:func:`_raise_faults` names it); it never stops the
    other rays.  On the degenerate contour every radius is 0 and nothing is
    evaluated.
    """
    c = _level_offset(fit, t_target)
    h_f = np.asarray(fit.hessian_at_opt)[np.ix_(focal, focal)]
    f_plane = fit.focal_objectives(focal)

    def gaps(units):
        """F - T along the rays units[which], at radii r."""
        return lambda r, which: f_plane(r[:, None] * units.take(which, axis=0)) - t_target

    def solve(units):
        k = len(units)
        if c == 0.0:
            return np.zeros(k), np.zeros(k, dtype=int)
        hi = np.ones(k)
        curv = np.sum(units @ h_f * units, axis=1)
        hi[curv > 0] = np.sqrt(2.0 * c / curv[curv > 0])
        lo, hi, g_lo, g_hi, escaped = bracket_level(
            gaps(units), np.zeros(k), hi, np.full(k, -c), doublings=90, edge_iters=80
        )
        live = np.flatnonzero(~escaped)
        radii, fault = np.full(k, np.nan), np.zeros(k, dtype=int)
        radii[live], fault[live] = bracketed_root(
            gaps(units.take(live, axis=0)), *(v.take(live) for v in (lo, hi, g_lo, g_hi)),
            f_tol=F_TOL,
        )
        return radii, fault

    return solve


def _raise_faults(fault):
    """Raise for a batch of rays with these fault codes, as for one failing
    ray of the batch: a Sigma failure inside a bracket before a root
    residual above tolerance.  Returns when no ray faulted."""
    if np.any(fault == UNDEFINED):
        raise NotPositiveDefinite("sigma_theta", "Sigma fails inside a bracketed ray")
    if np.any(fault):
        raise RuntimeError(f"root residual above tolerance {F_TOL:.1e}")


def _sweep(fit, t_target, focal, n_directions):
    """The direction sweep: an even number of equally spaced angles, their
    unit directions, the contour radius along each (NaN where the ray
    escapes, 0 on the degenerate contour) and the contour's ray solve.
    Raises for any faulted ray."""
    if len(focal) != 2:
        raise ValueError("direction sweeps need exactly two focal parameters")
    n = as_int(n_directions, "n_directions")
    if n < 4:
        raise ValueError("n_directions must be at least 4")
    n += n % 2
    angles = 2.0 * math.pi * np.arange(n) / n
    units = _units(angles)
    solve = _ray_solver(fit, focal, t_target)
    radii, fault = solve(units)
    _raise_faults(fault)
    return angles, units, radii, solve


def sweep_contour(fit, t_target: float, focal, n_directions: int = N_DIRECTIONS):
    """Solve the contour along ``n_directions`` equally spaced focal-plane
    rays (an odd count rounds up to even).  Returns the arrays ``(angles,
    radii, thetas)`` of the directions that reached the level, thetas the
    ``(k, q)`` stack theta_hat + r u(angle); escaped directions are absent."""
    focal = check_focal(focal, np.size(fit.theta_hat))
    angles, units, radii, _ = _sweep(fit, t_target, focal, n_directions)
    solved = np.isfinite(radii)
    u_full = _embed(fit, units[solved], focal)
    thetas = np.asarray(fit.theta_hat, dtype=float) + radii[solved, None] * u_full
    return angles[solved], radii[solved], thetas


def axis_widths_quadratic(fit, t_target: float, focal) -> AxisWidths:
    """Axis widths from the focal Hessian block.

    Eigen-decomposes the focal block H_f; with c = T - F-hat the axis for
    eigenvalue lambda has full width 2 sqrt(2 c / lambda), so the major axis
    belongs to the smallest eigenvalue.  Raises :class:`NotPositiveDefinite`
    when the focal block has a nonpositive eigenvalue (a flat or unidentified
    focal direction).
    """
    focal = check_focal(focal, np.size(fit.theta_hat))
    c = _level_offset(fit, t_target)
    lam, major_direction, minor_direction = _hessian_axes(fit, focal)
    if lam[0] <= 0:
        raise NotPositiveDefinite(
            "focal_hessian", "focal Hessian block has a nonpositive eigenvalue"
        )
    widths = 2.0 * np.sqrt(2.0 * c / lam)  # lam ascending -> widths descending
    return AxisWidths(
        major=float(widths[0]),
        minor=float(widths[-1]),
        major_direction=major_direction,
        minor_direction=minor_direction,
        focal=focal,
    )


def _hessian_axes(fit, focal):
    """Eigenvalues of the focal Hessian block, ascending, and the sign-fixed
    eigenvectors of the smallest (major axis) and the largest (minor axis)."""
    h_f = np.asarray(fit.hessian_at_opt, dtype=float)[np.ix_(focal, focal)]
    lam, vec = np.linalg.eigh(h_f)
    return lam, _fix_sign(vec[:, 0]), _fix_sign(vec[:, -1])


def _fix_sign(v):
    v = np.asarray(v, dtype=float).copy()
    for x in v:
        if x != 0.0:
            if x < 0:
                v = -v
            break
    return v


def axis_widths_exact(fit, t_target: float, focal, n_directions: int = N_DIRECTIONS) -> AxisWidths:
    """Axis widths from an exact direction sweep.

    Solves the contour along ``n_directions`` rays, measures the through-center
    width w(phi) = r(phi) + r(phi + pi), and refines the extremal angles by
    golden section to :data:`ANGLE_TOL` radians.  Escaped directions are skipped
    and counted; the result is flagged ``partial`` when more than 5% skip.
    """
    focal = check_focal(focal, np.size(fit.theta_hat))
    angles, _, radii, solve = _sweep(fit, t_target, focal, n_directions)
    if _level_offset(fit, t_target) == 0.0:
        # the axes' limit as T -> F-hat, where the contour is the quadratic
        # approximation's ellipse
        return AxisWidths(0.0, 0.0, *_hessian_axes(fit, focal)[1:], focal=focal)
    n = len(angles)
    half = n // 2
    widths = radii[:half] + radii[half:]
    valid = np.isfinite(widths)
    skipped = int(np.sum(~np.isfinite(radii)))
    if not np.any(valid):
        raise ContourEscapesDomain("no direction reached the contour level")

    # search 0 maximizes the width near the widest swept direction, search 1
    # maximizes minus the width near the narrowest; both advance together,
    # and the predicted paths of both share each stacked ray solve
    k_max = int(np.argmax(np.where(valid, widths, -np.inf)))
    k_min = int(np.argmin(np.where(valid, widths, np.inf)))
    sign = np.array([1.0, -1.0])

    def signed_widths(phi, which):
        u = _units(phi)
        r, fault = solve(np.vstack([u, -u]))
        m = len(phi)
        w = r[:m] + r[m:]
        return np.where(np.isnan(w), -np.inf, sign[which] * w), np.maximum(fault[:m], fault[m:])

    delta = 2.0 * math.pi / n
    centers = angles[[k_max, k_min]]
    # the swept widths at each bracket's ends and center (w is pi-periodic)
    # predict the searches' first steps
    offsets = np.array([-1, 0, 1])
    near = np.add.outer([k_max, k_min], offsets) % half
    known = centers[:, None] + delta * offsets, sign[:, None] * widths[near]
    phi, best, fault = golden_max(
        signed_widths, centers - delta, centers + delta, x_tol=ANGLE_TOL, known=known
    )
    _raise_faults(fault)
    return AxisWidths(
        major=max(float(best[0]), float(widths[k_max])),
        minor=min(-float(best[1]), float(widths[k_min])),
        major_direction=np.array([math.cos(phi[0]), math.sin(phi[0])]),
        minor_direction=np.array([math.cos(phi[1]), math.sin(phi[1])]),
        focal=focal,
        skipped=skipped,
        partial=skipped > 0.05 * n,
    )


def fpe_sample(fit, target: ContourTarget, focal, n_directions: int = N_DIRECTIONS) -> np.ndarray:
    """The fungible parameter estimates: the ``(k, q)`` stack of contour
    points of the sweep at :func:`f_target`'s level; a degenerate target
    (e.g. ``delta_f=0``) gives theta_hat once per swept direction."""
    return sweep_contour(fit, f_target(target, fit, n_focal=len(focal)), focal, n_directions)[2]
