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

Every ray solve goes through one lockstep engine, and one engine run
covers the widths of many (fit, level) pairs: :func:`axis_widths_group`
solves every pair's sweep in one stacked solve and refines every pair's two
extremal angles in one :func:`~fungible._solve.golden_max` call, and
:func:`axis_widths_exact` is its one-pair view.  All rays of a solve advance
together, one stacked evaluation of F per step over a ``(k, len(focal))``
stack of offsets r u from theta-hat, each row on its own pair's contour, and
each ray takes the iterates its own scalar search would take.  A ray whose
root fails gets a fault code and leaves the others to finish; a sweep
raises for any faulted ray, and a width fails for its own rays alone.  The
golden searches replay the step-by-step search over a cache of widths per
extremum, evaluating several predicted steps per ray solve seeded with the
swept widths around it; a fault at one search's angles ends that search
alone, and its width fails for it.  A cached width comes from whichever
stacked solve evaluated it, so a ray's radius must not depend on the rows
beside it, its own contour's or another's (a test pins this).  For a
:class:`~fungible.fit.FitResult` that evaluation is
:meth:`~fungible.fit.FitResult.focal_objectives`, the focal-plane evaluator
:class:`~fungible.discrepancy.FocalPlane`: on a single-step model it
factors only the Schur complement K of the rows of Sigma the focal
parameters move (one row for gamma1/gamma2: K is 1 x 1, with no LAPACK
call), with K and N polynomials in the focal offsets, its rows within a
few 1e-13 of :func:`~fungible.discrepancy.f_ml`'s, relative; on longer
paths it is the discrepancy kernel itself.  The planes of a group's fits
stack along a fit axis (:meth:`~fungible.discrepancy.FocalPlane.stack`),
so a group step is one call.  On the ROADMAP Baseline fit (Sigma1, eps .03,
N = 200; eps_tilde target; 2-core Xeon VM, one BLAS thread), a 90-direction
width alone makes 18 stacked calls over about 1,350 rows and a
360-direction width 18 over about 2,570; the evaluator is about 0.30 of
either, the rest this engine's own numpy and Python work.  The 20 usable
sample fits of that cell (seed 1) at the eps_tilde and delta_f levels, 40
widths, take 24 stacked calls over 91,048 rows at 360 directions as one
group, against 688 calls over the same rows one width at a time (29
against 726 at 90 directions).

These functions only use ``theta_hat``, ``f_hat``, ``n``, ``hessian_at_opt``
and ``focal_objectives(focal)`` from the fit argument, and
:func:`f_target`'s ``eps_tilde`` mode also ``df``, so any object exposing
those (e.g. a test surrogate) works in place of a
:class:`~fungible.fit.FitResult`.  Each of them is required.
``focal_objectives(focal)`` returns a callable that takes a
``(k, len(focal))`` stack of offsets of the focal parameters from theta-hat
(the other parameters pinned there) and returns F for each row, NaN where F
is undefined; the engine asks for it once per fit of a run and evaluates
only this form, one call per step for the planes that stack and one per
plane over its own rows for any other (a group may mix such objects with
fits).
``hessian_at_opt`` seeds every ray and gives the degenerate contour's axes;
a stand-in with no curvature to offer may declare a zero matrix, which
seeds every ray at radius 1 and keeps the coordinate axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solve import UNDEFINED, bracket_level, bracketed_root, golden_max
from .discrepancy import FocalPlane, chisq_quantile, f_from_rmsea, rmsea_from_f
from .errors import ContourEscapesDomain, NotPositiveDefinite, RootAboveTolerance
from .model import as_int, check_focal, is_real

DELTA_F = "delta_f"
EPS_TILDE = "eps_tilde"
CONFIDENCE = "confidence"
_MODES = (DELTA_F, EPS_TILDE, CONFIDENCE)
SCALINGS = ("likelihood", "raw", "relative")  # of the delta_f offset
N_DIRECTIONS = 360  # rays per contour sweep unless a caller says otherwise

F_TOL = 1e-9  # every ray root: |F - T| <= F_TOL
ANGLE_TOL = 1e-6  # golden refinement of the extremal width angles, radians


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
            if not is_real(value):
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


def _ray_solver(fits, focal, pairs):
    """The ray solve of a group of contours, one per ``(fit index, level
    T)`` of ``pairs``.  Returns ``(solve, c, failed)``: ``failed`` holds, per
    pair, the error its contour raises before any ray is solved (a level
    below F-hat, or one its fit's focal plane or Hessian raises), else None;
    ``c`` the level offsets T - F-hat; and ``solve(units, pair)`` the radii
    r > 0 with F(theta_hat + r u) = T along every row u of ``units`` (unit
    focal-plane directions) on the contour of the pair ``pair[row]``, and a
    fault code per ray.  What every ray solve of a contour shares (the level
    offset, the focal Hessian block and the focal-plane evaluator) is
    computed once here, so a width's refinement does not pay for it per
    call.

    All rays advance in lockstep, one stacked evaluation of F per step: the
    fits' ``focal_objectives(focal)`` stacked along a fit axis
    (:meth:`~fungible.discrepancy.FocalPlane.stack`), or, where they do not
    stack, one call per fit over its own rows.
    :func:`~fungible._solve.bracket_level` doubles out from the
    quadratic-approximation radius sqrt(2c / (u H_f u')), or from 1 where
    that curvature is not positive, and bisects back to the domain edge for
    rays that left the evaluable region, then the safeguarded
    secant/bisection root to |F - T| <= :data:`F_TOL`.  A ray
    escapes (radius NaN, fault 0) when the level lies beyond its domain edge
    or is not reached in 90 doublings.  A ray whose root fails has radius NaN
    and a nonzero fault (:func:`_fault_error` names it); it never stops the
    other rays.  On a degenerate contour every radius is 0 and nothing is
    evaluated.  Each fit's curvatures are one ``units @ H_f`` product over
    its rows, so a ray's bits do not depend on the rows beside it.
    """
    fit_of = np.array([i for i, _ in pairs], dtype=int)
    t = np.array([level for _, level in pairs], dtype=float)
    c = np.full(len(pairs), np.nan)
    failed = [None] * len(pairs)
    for p, (i, level) in enumerate(pairs):
        try:
            c[p] = _level_offset(fits[i], level)
        except Exception as err:  # noqa: BLE001 - this pair's own error
            failed[p] = err
    # per fit with a contour to solve: its focal plane and Hessian block,
    # and its index into them
    planes, hessians, slot = [], [], np.zeros(len(fits), dtype=int)
    for i in sorted({i for (i, _), err in zip(pairs, failed) if err is None}):
        try:
            h_f = np.asarray(fits[i].hessian_at_opt)[np.ix_(focal, focal)]
            plane = fits[i].focal_objectives(focal)
        except Exception as err:  # noqa: BLE001 - this fit's own error
            for p in np.flatnonzero(fit_of == i):
                failed[p] = failed[p] or err
            continue
        slot[i] = len(planes)
        planes.append(plane)
        hessians.append(h_f)
    slot_of = slot.take(fit_of)  # per pair

    def per_plane(offsets, slots):
        out = np.empty(len(offsets))  # one call per plane over its own rows
        for j in np.unique(slots):
            rows = np.flatnonzero(slots == j)
            out[rows] = planes[j](offsets.take(rows, axis=0))
        return out

    evaluate = (FocalPlane.stack(planes) if planes else None) or per_plane

    def gaps(units, slots, t_rows):
        """F - T along the rays units[which], at radii r."""
        return lambda r, which: (
            evaluate(r[:, None] * units.take(which, axis=0), slots.take(which))
            - t_rows.take(which)
        )

    def solve(units, pair):
        k = len(units)
        radii, fault = np.zeros(k), np.zeros(k, dtype=int)
        c_rows = c.take(pair)
        rows = c_rows.nonzero()[0]  # c == 0: radius 0, nothing evaluated
        if not rows.size:
            return radii, fault
        if rows.size < k:
            units, pair, c_rows = units.take(rows, axis=0), pair.take(rows), c_rows.take(rows)
        t_rows, slots = t.take(pair), slot_of.take(pair)
        if len(planes) == 1:
            curv = np.sum(units @ hessians[0] * units, axis=1)
        else:
            curv = np.empty(len(units))
            order = np.argsort(slots, kind="stable")
            for block in np.split(order, np.flatnonzero(np.diff(slots.take(order))) + 1):
                u = units.take(block, axis=0)
                curv[block] = np.sum(u @ hessians[slots[block[0]]] * u, axis=1)
        hi = np.ones(len(units))
        hi[curv > 0] = np.sqrt(2.0 * c_rows[curv > 0] / curv[curv > 0])
        lo, hi, g_lo, g_hi, escaped = bracket_level(
            gaps(units, slots, t_rows), np.zeros(len(units)), hi, -c_rows,
            doublings=90, edge_iters=80,
        )
        live = np.flatnonzero(~escaped)
        r, f = np.full(len(units), np.nan), np.zeros(len(units), dtype=int)
        r[live], f[live] = bracketed_root(
            gaps(*(v.take(live, axis=0) for v in (units, slots, t_rows))),
            *(v.take(live) for v in (lo, hi, g_lo, g_hi)), f_tol=F_TOL,
        )
        if rows.size < k:
            radii[rows], fault[rows] = r, f
            return radii, fault
        return r, f

    return solve, c, failed


def _fault_error(code):
    """The error of a batch of rays whose largest fault code is ``code``,
    as for one failing ray of the batch: a Sigma failure inside a bracket
    before a root residual above tolerance.  None where no ray faulted."""
    if code == UNDEFINED:
        return NotPositiveDefinite("sigma_theta", "Sigma fails inside a bracketed ray")
    if code:
        return RootAboveTolerance(f"root residual above tolerance {F_TOL:.1e}")
    return None


def _directions(focal, n_directions):
    """The direction sweep: an even number of equally spaced angles and
    their unit directions."""
    if len(focal) != 2:
        raise ValueError("direction sweeps need exactly two focal parameters")
    n = as_int(n_directions, "n_directions")
    if n < 4:
        raise ValueError("n_directions must be at least 4")
    n += n % 2
    angles = 2.0 * math.pi * np.arange(n) / n
    return angles, _units(angles)


def sweep_contour(fit, t_target: float, focal, n_directions: int = N_DIRECTIONS):
    """Solve the contour along ``n_directions`` equally spaced focal-plane
    rays (an odd count rounds up to even).  Returns the arrays ``(angles,
    radii, thetas)`` of the directions that reached the level, thetas the
    ``(k, q)`` stack theta_hat + r u(angle); escaped directions are absent.
    Raises for any faulted ray."""
    focal = check_focal(focal, np.size(fit.theta_hat))
    angles, units = _directions(focal, n_directions)
    solve, _, failed = _ray_solver([fit], focal, [(0, t_target)])
    if failed[0] is not None:
        raise failed[0]
    radii, fault = solve(units, np.zeros(len(units), dtype=int))
    if (err := _fault_error(fault.max())) is not None:
        raise err
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
    """Axis widths from an exact direction sweep: :func:`axis_widths_group`
    of the one fit at the one level, raising the width's error."""
    (widths,), = axis_widths_group([fit], [[t_target]], focal, n_directions)
    if isinstance(widths, Exception):
        raise widths
    return widths


def axis_widths_group(fits, levels, focal, n_directions: int = N_DIRECTIONS):
    """Axis widths from exact direction sweeps of many contours at once,
    ``levels[i]`` the levels T of ``fits[i]``: per fit, a list of the
    :class:`AxisWidths` at each of its levels, or the error that width
    fails with.  Raises only for its arguments: ``focal``, ``n_directions``
    or ``levels`` not one sequence per fit.

    Each contour is solved along ``n_directions`` rays and its
    through-center width w(phi) = r(phi) + r(phi + pi) measured; the
    extremal angles are refined by golden section to :data:`ANGLE_TOL`
    radians.  Escaped directions are skipped and counted; a width is flagged
    ``partial`` when more than 5% skip.  A width fails with
    :class:`ContourEscapesDomain` when every direction escapes, with the
    error of :func:`_fault_error` for a faulted ray of its sweep or
    refinement, and with a level below F-hat's :class:`ValueError` or any
    error its fit's focal plane raises.  Every contour's rays share one
    lockstep engine run: one stacked sweep solve, and one
    :func:`~fungible._solve.golden_max` call over every width's two
    brackets, so each engine step serves them all.  Rays and brackets are
    independent problems, so each width has the bits it has alone.
    """
    fits = list(fits)
    if len(levels) != len(fits):
        raise ValueError("levels must hold one sequence of levels per fit")
    for fit in fits:
        focal = check_focal(focal, np.size(fit.theta_hat))
    angles, units = _directions(focal, n_directions)
    pairs = [(i, level) for i, fit_levels in enumerate(levels) for level in fit_levels]
    solve, c, out = _ray_solver(fits, focal, pairs)
    todo = np.array([p for p, err in enumerate(out) if err is None], dtype=int)
    n, half = len(angles), len(angles) // 2
    sweep = np.arange(len(todo) * n)  # every pair's rays, pair by pair
    radii, fault = (v.reshape(len(todo), n)
                    for v in solve(units.take(sweep % n, axis=0), todo.take(sweep // n)))
    widths = radii[:, :half] + radii[:, half:]
    valid = np.isfinite(widths)
    skipped = (~np.isfinite(radii)).sum(axis=1)
    k_max = np.argmax(np.where(valid, widths, -np.inf), axis=1)
    k_min = np.argmin(np.where(valid, widths, np.inf), axis=1)
    worst = fault.max(axis=1, initial=0)
    refine = []
    for j, p in enumerate(todo.tolist()):
        if (err := _fault_error(worst[j])) is not None:
            out[p] = err
        elif c[p] == 0.0:
            # the axes' limit as T -> F-hat, where the contour is the
            # quadratic approximation's ellipse
            try:
                out[p] = AxisWidths(0.0, 0.0, *_hessian_axes(fits[pairs[p][0]], focal)[1:],
                                    focal=focal)
            except Exception as err:  # noqa: BLE001 - this width's own error
                out[p] = err
        elif not valid[j].any():
            out[p] = ContourEscapesDomain("no direction reached the contour level")
        else:
            refine.append(j)

    # per width, bracket 0 maximizes the width near the widest swept
    # direction and bracket 1 minus the width near the narrowest; all
    # brackets advance together, and the predicted paths of all share each
    # stacked ray solve
    refine = np.array(refine, dtype=int)
    delta = 2.0 * math.pi / n
    rows = refine.repeat(2)  # each bracket's width in the sweep
    extrema = np.where(np.arange(len(rows)) % 2, k_min.take(rows), k_max.take(rows))
    sign = np.array([1.0, -1.0] * len(refine))
    bracket_pair = todo.take(rows)

    def signed_widths(phi, which):
        u = _units(phi)
        pair = bracket_pair.take(which)
        r, codes = solve(np.vstack([u, -u]), np.concatenate([pair, pair]))
        m = len(phi)
        w = r[:m] + r[m:]
        signed = np.where(np.isnan(w), -np.inf, sign.take(which) * w)
        return signed, np.maximum(codes[:m], codes[m:])

    if len(refine):
        centers = angles.take(extrema)
        # the swept widths at each bracket's ends and center (w is
        # pi-periodic) predict the searches' first steps
        offsets = np.array([-1, 0, 1])
        near = (extrema[:, None] + offsets) % half
        known = centers[:, None] + delta * offsets, sign[:, None] * widths[rows[:, None], near]
        phi, best, codes = golden_max(
            signed_widths, centers - delta, centers + delta, x_tol=ANGLE_TOL, known=known
        )
    for b, j in enumerate(refine.tolist()):
        p = todo[j]
        if (err := _fault_error(max(codes[2 * b], codes[2 * b + 1]))) is not None:
            out[p] = err
            continue
        out[p] = AxisWidths(
            major=max(float(best[2 * b]), float(widths[j, k_max[j]])),
            minor=min(-float(best[2 * b + 1]), float(widths[j, k_min[j]])),
            major_direction=np.array([math.cos(phi[2 * b]), math.sin(phi[2 * b])]),
            minor_direction=np.array([math.cos(phi[2 * b + 1]), math.sin(phi[2 * b + 1])]),
            focal=focal,
            skipped=int(skipped[j]),
            partial=bool(skipped[j] > 0.05 * n),
        )
    per_fit, start = [], 0
    for fit_levels in levels:
        per_fit.append(out[start : start + len(fit_levels)])
        start += len(fit_levels)
    return per_fit


def fpe_sample(fit, target: ContourTarget, focal, n_directions: int = N_DIRECTIONS) -> np.ndarray:
    """The fungible parameter estimates: the ``(k, q)`` stack of contour
    points of the sweep at :func:`f_target`'s level; a degenerate target
    (e.g. ``delta_f=0``) gives theta_hat once per swept direction."""
    return sweep_contour(fit, f_target(target, fit, n_focal=len(focal)), focal, n_directions)[2]
