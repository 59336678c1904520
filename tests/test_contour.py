import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungible import (
    AxisWidths,
    ContourEscapesDomain,
    ContourTarget,
    NotPositiveDefinite,
    RootAboveTolerance,
    SingularStructure,
    axis_widths_exact,
    axis_widths_quadratic,
    chisq_quantile,
    condition_at,
    f_from_rmsea,
    f_ml,
    f_target,
    fit_ml,
    fpe_sample,
    replication_rng,
    rmsea_from_f,
    sweep_contour,
    wishart_sample,
)
from fungible import contour
from fungible._solve import golden_max
from fungible.contour import axis_widths_group
from fungible.discrepancy import FocalPlane
from fungible.errors import FungibleError
from fungible.simstudy import DEFAULT_TARGETS
from helpers import (
    QuadraticSurrogate,
    RowMapped,
    reference_bracket_level,
    reference_bracketed_root,
    random_model,
    reference_golden_max,
    regression_model,
)


class TestFTarget:
    def test_zero_offset_degenerates(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.37, n=500)
        for scaling in ("likelihood", "raw", "relative"):
            target = ContourTarget(mode="delta_f", delta_f=0.0, scaling=scaling)
            assert f_target(target, fit) == pytest.approx(0.37, abs=1e-15)

    def test_delta_f_scalings(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.1, n=201)
        assert f_target(
            ContourTarget(mode="delta_f", delta_f=0.05), fit
        ) == pytest.approx(0.1 + 2 * 0.05 / 200)
        assert f_target(
            ContourTarget(mode="delta_f", delta_f=0.05, scaling="raw"), fit
        ) == pytest.approx(0.15)
        assert f_target(
            ContourTarget(mode="delta_f", delta_f=0.05, scaling="relative"), fit
        ) == pytest.approx(0.105)

    def test_confidence_example(self):
        # F=0, q_focal=2, N=1000: T = chi2(2, .95)/999 = 5.9975e-3
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.0, n=1000)
        t = f_target(ContourTarget(mode="confidence", confidence=0.95), fit, n_focal=2)
        assert t == pytest.approx(chisq_quantile(2, 0.95) / 999, abs=1e-15)
        assert t == pytest.approx(5.9975e-3, abs=1e-6)

    def test_eps_tilde_example(self):
        # fitted at sample RMSEA .03 with df=9, N=200; offsetting by .005
        # lands on f for RMSEA .035
        f_hat = f_from_rmsea(0.03, 9, 200)
        fit = QuadraticSurrogate(np.eye(2), f_hat=f_hat, n=200)
        fit.df = 9
        t = f_target(ContourTarget(mode="eps_tilde", epsilon_tilde=0.005), fit)
        assert t == pytest.approx(9 * (0.035 ** 2 + 1 / 199), abs=1e-12)

    def test_sample_size_required(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.1, n=None)
        for target in (
            ContourTarget(mode="delta_f"),
            ContourTarget(mode="confidence"),
        ):
            with pytest.raises(ValueError, match="sample size"):
                f_target(target, fit)

    def test_level_never_below_minimum(self, focal):
        # replication 13 of Sigma2, N=200, seed 1: the zero eps_tilde
        # offset's level rounds below F-hat, which once ended the study
        cond = condition_at("Sigma2", 0.0)
        s = wishart_sample(cond.sigma_pop, 200, replication_rng(1, "Sigma2", 200, 0.0, 13))
        res = fit_ml(cond.model, s, n=200)
        eps_hat = rmsea_from_f(res.f_hat, res.df, res.n)
        assert f_from_rmsea(eps_hat, res.df, res.n) < res.f_hat
        target = ContourTarget(mode="eps_tilde", epsilon_tilde=0.0)
        assert f_target(target, res) == res.f_hat
        aw = axis_widths_exact(res, f_target(target, res), focal, 8)
        assert aw.major == aw.minor == 0.0

    def test_target_validation(self):
        with pytest.raises(ValueError):
            ContourTarget(mode="nonsense")
        with pytest.raises(ValueError):
            ContourTarget(mode="delta_f", delta_f=-0.1)
        with pytest.raises(ValueError):
            ContourTarget(mode="confidence", confidence=1.0)
        with pytest.raises(ValueError):
            ContourTarget(mode="delta_f", scaling="inverse")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("confidence", "0.95"),
            ("confidence", True),
            ("delta_f", math.nan),
            ("epsilon_tilde", None),
            ("epsilon_tilde", math.inf),
            ("mode", 3),
            ("scaling", None),
        ],
    )
    def test_target_field_types(self, field, value):
        # a string level once ended in a TypeError from the range check
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            ContourTarget(**{field: value})


class TestRadialContourPoint:
    """The contour points of :func:`sweep_contour`, one per solved ray."""

    def test_quadratic_surrogate_axes(self):
        fit = QuadraticSurrogate(np.diag([4.0, 1.0]))
        angles, radii, thetas = sweep_contour(fit, 0.02, (0, 1), 4)
        np.testing.assert_array_equal(angles, 0.5 * math.pi * np.arange(4))
        assert radii[0] == pytest.approx(0.1, abs=1e-6)
        assert radii[1] == pytest.approx(0.2, abs=1e-6)
        np.testing.assert_allclose(np.linalg.norm(thetas, axis=1), radii, rtol=1e-15)

    def test_defining_residual_on_real_fit(self, conditions, popfits, focal):
        res = popfits["Sigma1"]
        t = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        _, radii, thetas = sweep_contour(res, t, focal, 14)
        assert thetas.shape == (14, res.model.q) and np.all(radii > 0)
        for theta in thetas:
            assert abs(f_ml(res.model, theta, res.s) - t) <= 1e-9

    def test_level_below_minimum_rejected(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.5)
        with pytest.raises(ValueError):
            sweep_contour(fit, 0.4, (0, 1), 8)

    def test_flat_direction_escapes(self):
        class FlatFit(RowMapped):
            theta_hat = np.zeros(2)
            f_hat = 0.0
            n = None
            hessian_at_opt = np.zeros((2, 2))

            def objective(self, theta):
                return 0.5 * min(theta[1], 0.0) ** 2  # flat where theta[1] >= 0

        # only the ray at 3 pi / 2 reaches the level; the three flat ones
        # (sin 0 and sin pi are not negative) escape and are absent
        angles, radii, thetas = sweep_contour(FlatFit(), 0.02, (0, 1), 4)
        np.testing.assert_array_equal(angles, [2.0 * math.pi * 3 / 4])
        assert radii[0] == pytest.approx(0.2, abs=1e-6)
        np.testing.assert_allclose(thetas, [[0.0, -radii[0]]], atol=1e-15)

    def test_domain_edge_escapes(self):
        class BoundedFit(RowMapped):
            # Sigma fails (F is NaN) beyond radius 2
            theta_hat = np.zeros(2)
            f_hat = 0.0
            n = None
            hessian_at_opt = np.zeros((2, 2))

            def objective(self, theta):
                r = float(np.linalg.norm(theta))
                return math.nan if r > 2.0 else 1e-3 * r * r

        angles, radii, thetas = sweep_contour(BoundedFit(), 0.02, (0, 1), 8)
        assert angles.shape == radii.shape == (0,) and thetas.shape == (0, 2)
        with pytest.raises(ContourEscapesDomain):
            axis_widths_exact(BoundedFit(), 0.02, (0, 1), 8)

    @pytest.mark.parametrize("kind, error", [("nan", NotPositiveDefinite), ("jump", RootAboveTolerance)])
    def test_faulted_sweep_ray_raises(self, kind, error):
        # the swept ray at angle 0 meets the fault inside its bracket [0, 1]
        with pytest.raises(error):
            sweep_contour(_Faulty(0.0, 0.3, kind), _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)


class TestAxisWidthsQuadratic:
    def test_closed_form(self):
        fit = QuadraticSurrogate(np.diag([4.0, 1.0]))
        aw = axis_widths_quadratic(fit, 0.02, (0, 1))
        assert aw.major == pytest.approx(0.4, abs=1e-12)
        assert aw.minor == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(np.abs(aw.major_direction), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(aw.minor_direction), [1.0, 0.0], atol=1e-12)

    def test_isotropic_contour(self):
        fit = QuadraticSurrogate(np.eye(2))
        aw = axis_widths_quadratic(fit, 0.08, (0, 1))
        assert aw.major == pytest.approx(aw.minor)
        assert aw.major == pytest.approx(2 * math.sqrt(2 * 0.08))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        h = np.diag([5.0, 0.7])
        angle = rng.uniform(0, math.pi)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        fit_a = QuadraticSurrogate(h)
        fit_b = QuadraticSurrogate(rot.T @ h @ rot)
        aw_a = axis_widths_quadratic(fit_a, 0.02, (0, 1))
        aw_b = axis_widths_quadratic(fit_b, 0.02, (0, 1))
        assert aw_a.major == pytest.approx(aw_b.major, abs=1e-10)
        assert aw_a.minor == pytest.approx(aw_b.minor, abs=1e-10)

    def test_focal_swap_invariance(self, popfits, focal):
        res = popfits["Sigma2"]
        t = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        a = axis_widths_quadratic(res, t, focal)
        b = axis_widths_quadratic(res, t, focal[::-1])
        assert a.major == pytest.approx(b.major, abs=1e-10)
        assert a.minor == pytest.approx(b.minor, abs=1e-10)

    def test_directions_orthogonal(self, popfits, focal):
        res = popfits["Sigma3"]
        t = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        aw = axis_widths_quadratic(res, t, focal)
        assert abs(float(aw.major_direction @ aw.minor_direction)) < 1e-8

    def test_flat_direction_raises(self):
        fit = QuadraticSurrogate(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite) as err:
            axis_widths_quadratic(fit, 0.02, (0, 1))
        assert err.value.which == "focal_hessian"

    def test_full_parameter_ellipsoid_mode(self, popfits):
        # more than two focal parameters: extreme axes of the ellipsoid
        res = popfits["Sigma1"]
        t = res.f_hat + 0.01
        aw = axis_widths_quadratic(res, t, tuple(range(res.model.q)))
        assert aw.major >= aw.minor > 0


class TestAxisWidthsExact:
    def test_matches_quadratic_on_surrogate(self):
        fit = QuadraticSurrogate(np.diag([4.0, 1.0]))
        aw = axis_widths_exact(fit, 0.02, (0, 1), 360)
        assert aw.major == pytest.approx(0.4, abs=1e-6)
        assert aw.minor == pytest.approx(0.2, abs=1e-6)
        assert aw.skipped == 0
        assert not aw.partial

    def test_agrees_with_quadratic_on_real_fits(self, popfits, focal):
        # delta_f = .05 likelihood scale: the two methods stay within 25%
        for label in ("Sigma1", "Sigma3"):
            res = popfits[label]
            t = f_target(ContourTarget(mode="delta_f", delta_f=0.05), res)
            quad = axis_widths_quadratic(res, t, focal)
            exact = axis_widths_exact(res, t, focal, 64)
            assert exact.major == pytest.approx(quad.major, rel=0.25)
            assert exact.minor == pytest.approx(quad.minor, rel=0.25)

    def test_monotone_in_target(self, popfits, focal):
        res = popfits["Sigma2"]
        levels = [res.f_hat + c for c in (0.002, 0.004, 0.008)]
        widths = [axis_widths_exact(res, t, focal, 32) for t in levels]
        majors = [w.major for w in widths]
        minors = [w.minor for w in widths]
        assert majors == sorted(majors)
        assert minors == sorted(minors)

    def test_focal_swap_invariance(self, popfits, focal):
        res = popfits["Sigma1"]
        t = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        a = axis_widths_exact(res, t, focal, 64)
        b = axis_widths_exact(res, t, focal[::-1], 64)
        assert a.major == pytest.approx(b.major, abs=1e-10)
        assert a.minor == pytest.approx(b.minor, abs=1e-10)

    def test_degenerate_level(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.2)
        aw = axis_widths_exact(fit, 0.2, (0, 1))
        assert aw.major == aw.minor == 0.0

    def test_partial_flag_on_escapes(self):
        class Walled(RowMapped):
            # isotropic bowl, but positive definiteness fails (F is NaN) at
            # |theta[1]| > 0.1 before the contour radius 0.2 is reached
            theta_hat = np.zeros(2)
            f_hat = 0.0
            n = None
            hessian_at_opt = np.zeros((2, 2))

            def objective(self, theta):
                return math.nan if abs(theta[1]) > 0.1 else 0.5 * float(theta @ theta)

        aw = axis_widths_exact(Walled(), 0.02, (0, 1), 4)
        assert aw.skipped == 2
        assert aw.partial
        assert aw.major == pytest.approx(0.4, abs=1e-6)
        assert aw.minor == pytest.approx(0.4, abs=1e-6)

    def test_needs_two_focal(self, popfits):
        with pytest.raises(ValueError, match="two focal"):
            axis_widths_exact(popfits["Sigma1"], 1.0, (0, 1, 2), 16)

    def test_axis_widths_invariant(self):
        with pytest.raises(ValueError, match="major >= minor"):
            AxisWidths(0.1, 0.2, np.array([1.0, 0]), np.array([0, 1.0]), (0, 1))


class TestSweepAndSample:
    def test_sweep_deterministic(self, popfits, focal):
        res = popfits["Sigma4"]
        t = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        a = sweep_contour(res, t, focal, 16)
        b = sweep_contour(res, t, focal, 16)
        assert len(a[0]) == len(b[0]) == 16
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_fpe_degenerate_target(self, popfits, focal):
        res = popfits["Sigma1"]
        target = ContourTarget(mode="delta_f", delta_f=0.0)
        points = fpe_sample(res, target, focal, 24)
        np.testing.assert_array_equal(points, np.tile(res.theta_hat, (24, 1)))

    def test_fpe_sample_is_the_sweep_stack(self, popfits, focal):
        res = popfits["Sigma3"]
        target = ContourTarget(mode="eps_tilde", epsilon_tilde=0.005)
        t = f_target(target, res, n_focal=2)
        np.testing.assert_array_equal(
            fpe_sample(res, target, focal, 12), sweep_contour(res, t, focal, 12)[2]
        )

    def test_fpe_residuals_and_count(self, popfits, focal):
        res = popfits["Sigma2"]
        target = ContourTarget(mode="eps_tilde", epsilon_tilde=0.005)
        points = fpe_sample(res, target, focal, 30)
        t = f_target(target, res, n_focal=2)
        assert points.shape == (30, res.model.q)
        for theta in points:
            assert abs(f_ml(res.model, theta, res.s) - t) <= 1e-9
        # non-focal coordinates stay pinned at theta_hat
        free = np.ones(res.model.q, dtype=bool)
        free[list(focal)] = False
        for theta in points:
            np.testing.assert_array_equal(theta[free], res.theta_hat[free])


class TestSampleSizeScaling:
    def test_confidence_quadratic_ratio_exact(self, popfits, focal):
        res = popfits["Sigma1"]
        target = ContourTarget(mode="confidence", confidence=0.95)
        small = axis_widths_quadratic(res, f_target(target, res, n_focal=2), focal)
        big_fit = dataclasses.replace(res, n=1000)
        big = axis_widths_quadratic(big_fit, f_target(target, big_fit, n_focal=2), focal)
        ratio = math.sqrt(999.0 / 199.0)
        assert small.major / big.major == pytest.approx(ratio, abs=1e-10)
        assert small.minor / big.minor == pytest.approx(ratio, abs=1e-10)

    def test_delta_f_likelihood_ratio_exact_quadratic(self, popfits, focal):
        res = popfits["Sigma2"]
        target = ContourTarget(mode="delta_f", delta_f=0.05, scaling="likelihood")
        small = axis_widths_quadratic(res, f_target(target, res), focal)
        big_fit = dataclasses.replace(res, n=1000)
        big = axis_widths_quadratic(big_fit, f_target(target, big_fit), focal)
        assert small.major / big.major == pytest.approx(
            math.sqrt(999.0 / 199.0), abs=1e-10
        )

    def test_delta_f_raw_is_sample_size_free(self, popfits, focal):
        res = popfits["Sigma2"]
        target = ContourTarget(mode="delta_f", delta_f=0.05, scaling="raw")
        small = axis_widths_quadratic(res, f_target(target, res), focal)
        big_fit = dataclasses.replace(res, n=1000)
        big = axis_widths_quadratic(big_fit, f_target(target, big_fit), focal)
        assert small.major == big.major
        assert small.minor == big.minor


def _reference_radius(res, unit, focal, t, f_tol=1e-9):
    """One ray solved on its own with the scalar f_ml: exponential bracketing
    from the quadratic radius, bisection to the domain edge, then the root;
    NaN when the ray escapes."""
    u_full = np.zeros(res.model.q)
    u_full[list(focal)] = unit

    def gap(r):
        try:
            return f_ml(res.model, res.theta_hat + r * u_full, res.s) - t
        except (NotPositiveDefinite, SingularStructure):
            return math.nan

    c = t - res.f_hat
    curv = float(unit @ res.hessian_at_opt[np.ix_(focal, focal)] @ unit)
    hi = math.sqrt(2.0 * c / curv) if curv > 0 else 1.0
    lo, hi, g_lo, g_hi, escaped = reference_bracket_level(
        gap, 0.0, hi, -c, doublings=90, edge_iters=80
    )
    if escaped:
        return math.nan
    root, fault = reference_bracketed_root(gap, lo, hi, g_lo, g_hi, f_tol=f_tol)
    assert fault == 0
    return root


def _selftest_case():
    """Sigma3, N=50, epsilon .09, replication 0 of seed 1, raw delta_f 2.0:
    many of its rays end at the domain edge."""
    cond = condition_at("Sigma3", 0.09)
    s = wishart_sample(cond.sigma_pop, 50, replication_rng(1, "Sigma3", 50, 0.09, 0))
    res = fit_ml(cond.model, s, n=50)
    names = res.model.theta_names
    focal = (names.index("gamma1"), names.index("gamma2"))
    target = ContourTarget(mode="delta_f", delta_f=2.0, scaling="raw")
    return res, focal, f_target(target, res, n_focal=2)


class TestLockstepEngine:
    def test_matches_per_ray_reference(self, popfits, focal):
        cases = [_selftest_case()]
        res = popfits["Sigma1"]
        cases.append((res, focal, f_target(ContourTarget(mode="confidence"), res, n_focal=2)))
        for res, focal_pair, t in cases:
            solved = dict(zip(*sweep_contour(res, t, focal_pair, 16)[:2]))
            for k in range(16):
                angle = 2.0 * math.pi * k / 16
                unit = np.array([math.cos(angle), math.sin(angle)])
                want = _reference_radius(res, unit / np.linalg.norm(unit), focal_pair, t)
                if math.isnan(want):
                    assert angle not in solved
                else:
                    assert solved[angle] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_ray_radius_independent_of_its_stack(self):
        # golden_max caches each angle's value from whichever stacked solve
        # evaluated it, and a group's contours share each solve, so a ray's
        # radius and fault must be the same bits alone on its own contour,
        # in a stack, in a permuted stack and among another fit's rays on a
        # stacked plane (no SIMD-tail rounding)
        edge_fit, focal_pair, delta_f = _selftest_case()
        cond = condition_at("Sigma3", 0.09)
        s = wishart_sample(cond.sigma_pop, 200, replication_rng(1, "Sigma3", 200, 0.09, 0))
        res = fit_ml(cond.model, s, n=200)
        confidence = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        rng = np.random.default_rng(37)
        pairs = [(0, delta_f), (1, confidence), (1, delta_f)]
        solvers = [contour._ray_solver([fit], focal_pair, [(0, t)])[0]
                   for fit, t in ((edge_fit, delta_f), (res, confidence), (res, delta_f))]
        group = contour._ray_solver([edge_fit, res], focal_pair, pairs)[0]
        for _ in range(2):
            units = contour._units(rng.uniform(0.0, 2.0 * math.pi, 37))
            pair = rng.integers(0, len(pairs), 37)
            order = rng.permutation(37)
            alone = [np.concatenate(v) for v in zip(*(
                solvers[p](units[k : k + 1], np.zeros(1, dtype=int)) for k, p in enumerate(pair)))]
            stacked, permuted = group(units, pair), group(units[order], pair[order])
            for one, many, shuffled in zip(alone, stacked, permuted):
                assert many.tobytes() == one.tobytes()
                assert shuffled.tobytes() == one[order].tobytes()
            for p, solve in enumerate(solvers):  # each contour's rays as one stack
                own = np.flatnonzero(pair == p)
                for one, many in zip(alone, solve(units[own], np.zeros(len(own), dtype=int))):
                    assert many.tobytes() == one[own].tobytes()

    def test_domain_edge_case_solves(self):
        # this case used to end in numpy's LinAlgError during the domain-edge
        # bisection, which no caller caught
        res, focal, t = _selftest_case()
        widths = axis_widths_exact(res, t, focal, 90)
        assert widths.major >= widths.minor > 0.0
        for theta in sweep_contour(res, t, focal, 90)[2]:
            assert abs(f_ml(res.model, theta, res.s) - t) <= 1e-9


class _Counting:
    """A fit that counts the stacked calls of its focal-plane evaluators."""

    def __init__(self, fit):
        self._fit = fit
        self.rows = []

    def __getattr__(self, name):
        return getattr(self._fit, name)

    def focal_objectives(self, focal):
        objectives = self._fit.focal_objectives(focal)

        def counted(offsets):
            self.rows.append(len(offsets))
            return objectives(offsets)

        return counted


class _Faulty(RowMapped):
    """Duck-typed fit: an anisotropic bowl whose objective fails inside
    radius 1 within ``half_width`` of ``bad_angle``.  ``kind`` "nan" makes
    it NaN there (a Sigma failure inside the bracket); "jump" makes it jump
    over the level there, so no root meets the tolerance."""

    theta_hat = np.zeros(2)
    f_hat = 0.0
    n = None
    hessian_at_opt = np.zeros((2, 2))
    hessian = np.array([[3.0, 1.2], [1.2, 1.5]])

    def __init__(self, bad_angle=0.0, half_width=0.0, kind="nan"):
        self.bad_angle, self.half_width, self.kind = bad_angle, half_width, kind

    def objective(self, theta):
        value = 0.5 * float(theta @ self.hessian @ theta)
        r = math.hypot(theta[0], theta[1])
        off = math.remainder(math.atan2(theta[1], theta[0]) - self.bad_angle, 2.0 * math.pi)
        if 0.0 < r < 1.0 and abs(off) < self.half_width:
            return math.nan if self.kind == "nan" else (1.0 if value > 0.02 else 0.0)
        return value


class _Edged(_Faulty):
    """The bowl of :class:`_Faulty`, undefined beyond radius 0.1 within
    ``half_width`` of ``bad_angle``, so the rays there escape."""

    def objective(self, theta):
        off = math.remainder(math.atan2(theta[1], theta[0]) - self.bad_angle, 2.0 * math.pi)
        if abs(off) < self.half_width and math.hypot(theta[0], theta[1]) > 0.1:
            return math.nan
        return 0.5 * float(theta @ self.hessian @ theta)


_FAULTY_LEVEL, _FAULTY_DIRECTIONS = 0.02, 8


def _sequential_golden(f, a, b, guess, *, x_tol, max_iter=200):
    """The step-by-step refinement: ``helpers.reference_golden_max`` over the
    engine's stacked widths, raising as soon as a step's rays fault; it has
    no use for the ``guess`` of each argmax."""
    def values(x, which):
        out, fault = f(x, which)
        if (err := contour._fault_error(fault.max())) is not None:
            raise err
        return out

    x_best, f_best = reference_golden_max(values, a, b, x_tol=x_tol, max_iter=max_iter)
    return x_best, f_best, np.zeros(len(x_best), dtype=int)


def _golden_angles(monkeypatch, search, fit):
    """Every refinement angle ``search`` evaluates on ``fit``, with the
    sum of the fault codes the stacked ray solves reported."""
    seen, faults = [], [0]

    def recording(f, *args, **kw):
        def wrapped(x, which):
            seen.extend(x)
            out, fault = f(x, which)
            faults[0] += int(np.sum(fault))
            return out, fault

        return search(wrapped, *args, **kw)

    monkeypatch.setattr(contour, "golden_max", recording)
    axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)
    monkeypatch.undo()
    return np.array(seen), faults[0]


def _distance_mod_pi(x, angles):
    # a width at phi solves the rays at phi and phi + pi
    return np.min(np.abs(np.remainder(np.subtract.outer(x, angles) + 0.5 * math.pi, math.pi)
                         - 0.5 * math.pi), axis=-1)


class TestLookaheadRefinement:
    def test_pinned_width_digest(self):
        # major, minor, both directions, skipped and partial of the exact
        # widths of Sigma1-4 x N 50/200 at eps .09, for the three default
        # targets and raw delta_f 2.0 (domain-edge rays) at 90 and 360
        # directions, bit for bit, as one digest; the class of any error
        targets = DEFAULT_TARGETS + (ContourTarget(mode="delta_f", delta_f=2.0, scaling="raw"),)
        digest = hashlib.sha256()
        for label in ("Sigma1", "Sigma2", "Sigma3", "Sigma4"):
            cond = condition_at(label, 0.09)
            names = cond.model.theta_names
            focal = (names.index("gamma1"), names.index("gamma2"))
            for n in (50, 200):
                s = wishart_sample(cond.sigma_pop, n, replication_rng(5, label, n, 0.09, 0))
                res = fit_ml(cond.model, s, n=n)
                for target in targets:
                    t = f_target(target, res, n_focal=2)
                    for n_dir in (90, 360):
                        try:
                            w = axis_widths_exact(res, t, focal, n_dir)
                        except Exception as err:  # noqa: BLE001 - the class is pinned
                            digest.update(type(err).__name__.encode())
                            continue
                        for v in (w.major, w.minor):
                            digest.update(float(v).hex().encode())
                        for v in (w.major_direction, w.minor_direction):
                            digest.update(np.asarray(v, dtype="<f8").tobytes())
                        digest.update(f"{w.skipped}|{w.partial}".encode())
        assert digest.hexdigest() == (
            "b1e2ad0ff43f1774d8434035831105002623c425693262455dd075e688f1e27c"
        )

    @staticmethod
    def _stacked_calls(fit, focal, n_directions):
        counting = _Counting(fit)
        t = f_target(ContourTarget(mode="confidence", confidence=0.95), counting, n_focal=2)
        axis_widths_exact(counting, t, focal, n_directions)
        return len(counting.rows), sum(counting.rows)

    def test_stacked_evaluation_count(self, popfits, focal):
        # the criterion-05 fit at 90 directions: the step-by-step refinement
        # took 162 stacked evaluations (1,126 rows), a look-ahead of every
        # state three steps deep 66 (1,862 rows), a predicted path capped
        # at 12 golden steps per call 24 (1,186 rows), a path predicted
        # through x_tol from a parabola through three swept widths 18
        # (1,441 rows); its first path walked toward the stationary point
        # of the sextic through seven swept widths takes 18 (1,210 rows)
        assert self._stacked_calls(popfits["Sigma1"], focal, 90) == (18, 1210)

    def test_stacked_evaluation_count_at_360_directions(self, popfits, focal):
        # the same fit at 360 directions: the parabola's first path took 18
        # stacked evaluations (2,596 rows), the sextic's takes 12
        assert self._stacked_calls(popfits["Sigma1"], focal, 360) == (12, 2572)

    @pytest.mark.parametrize("n_directions, edged", [(8, False), (360, False), (360, True)])
    def test_guess_falls_back_to_the_swept_extremum(self, monkeypatch, n_directions, edged):
        # the guess is a swept angle itself where fewer than 7 angles per pi
        # are swept (8 directions) or a stencil width is NaN: with edged,
        # the ray two grid steps past the major axis escapes.  Elsewhere it
        # is the sextic's stationary point, off the grid
        delta = 2.0 * math.pi / n_directions
        vec = np.linalg.eigh(_Faulty.hessian)[1]
        major = math.atan2(vec[1, 0], vec[0, 0])  # the smaller curvature's axis
        fit = _Edged(major + 2.0 * delta, 0.6 * delta) if edged else _Faulty()
        guesses = []

        def spying(f, a, b, guess, **kw):
            guesses.append(np.asarray(guess))
            return golden_max(f, a, b, guess, **kw)

        monkeypatch.setattr(contour, "golden_max", spying)
        widths = axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), n_directions)
        assert widths.skipped == (1 if edged else 0)
        swept = 2.0 * math.pi * np.arange(n_directions) / n_directions
        on_grid = np.isin(guesses[0], swept).tolist()
        assert on_grid == ([True, True] if n_directions == 8 else [edged, False])

    @pytest.mark.parametrize("kind", ["nan", "jump"])
    def test_speculative_fault_is_discarded(self, monkeypatch, kind):
        # at 8 directions each first path walks toward the swept extremum
        # (the guess's fallback), so it strays from the committed path
        clean = _Faulty()
        committed, _ = _golden_angles(monkeypatch, _sequential_golden, clean)
        evaluated, _ = _golden_angles(monkeypatch, golden_max, clean)
        swept = 2.0 * math.pi * np.arange(_FAULTY_DIRECTIONS) / _FAULTY_DIRECTIONS
        avoid = np.concatenate([committed, swept])
        gap = _distance_mod_pi(evaluated, avoid)
        bad = int(np.argmax(gap))
        assert gap[bad] > 1e-3
        fit = _Faulty(evaluated[bad], 0.5 * gap[bad], kind)

        _, faults = _golden_angles(monkeypatch, golden_max, fit)
        assert faults > 0  # a speculative ray did fault
        got = axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)
        monkeypatch.setattr(contour, "golden_max", _sequential_golden)
        want = axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)
        for field in ("major", "minor", "skipped", "partial"):
            assert getattr(got, field) == getattr(want, field)
        np.testing.assert_array_equal(got.major_direction, want.major_direction)
        np.testing.assert_array_equal(got.minor_direction, want.minor_direction)

    @pytest.mark.parametrize("kind, error", [("nan", NotPositiveDefinite), ("jump", RootAboveTolerance)])
    def test_committed_fault_raises(self, monkeypatch, kind, error):
        clean = _Faulty()
        committed, _ = _golden_angles(monkeypatch, _sequential_golden, clean)
        swept = 2.0 * math.pi * np.arange(_FAULTY_DIRECTIONS) / _FAULTY_DIRECTIONS
        # the first bracket's point of step 8, away from the swept directions
        angle = committed[4 + 2 * 7]
        assert _distance_mod_pi(np.array([angle]), swept)[0] > 1e-3
        fit = _Faulty(angle, 1e-7, kind)
        with pytest.raises(error):
            axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)
        monkeypatch.setattr(contour, "golden_max", _sequential_golden)
        with pytest.raises(error):
            axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)

    def test_unmet_root_tolerance_is_declared(self, monkeypatch, popfits, focal):
        # no ray root meets a tolerance of 0; it once raised a bare
        # RuntimeError, which ended a whole study
        monkeypatch.setattr(contour, "F_TOL", 0.0)
        fit = popfits["Sigma1"]
        level = f_target(ContourTarget(mode="confidence"), fit, n_focal=2)
        with pytest.raises(RootAboveTolerance, match="root residual above tolerance 0.0e"):
            axis_widths_exact(fit, level, focal, 16)


class _FaultyAt(_Faulty):
    """:class:`_Faulty` on the focal pair ``focal`` of a ``q``-parameter
    vector, so that it can share a group with fits of the canonical model."""

    def __init__(self, focal, q, *args):
        super().__init__(*args)
        self.focal = list(focal)
        self.theta_hat, self.hessian_at_opt = np.zeros(q), np.zeros((q, q))

    def objective(self, theta):
        return super().objective(np.asarray(theta)[self.focal])


class _WalledAt(_FaultyAt):
    """An isotropic bowl on the focal pair whose F is NaN past 0.1 along the
    second focal parameter: at level 0.02 (radius 0.2) the rays within 60
    degrees of that axis escape (6 of 8), so its width is partial."""

    def objective(self, theta):
        d = np.asarray(theta)[self.focal]
        return math.nan if abs(d[1]) > 0.1 else 0.5 * float(d @ d)


def _outcome(width):
    """A width's bits (major, minor, both directions, skipped, partial), or
    its error's class."""
    if isinstance(width, Exception):
        return type(width).__name__
    return (width.major.hex(), width.minor.hex(), width.major_direction.tobytes(),
            width.minor_direction.tobytes(), width.skipped, width.partial)


def _alone(fit, t, focal, n_directions):
    try:
        return _outcome(axis_widths_exact(fit, t, focal, n_directions))
    except Exception as err:  # noqa: BLE001 - the class is compared
        return type(err).__name__


@pytest.fixture(scope="module")
def group_case(focal):
    """Sample fits of Sigma1-4 x N 50/200 at eps .09 and the raw delta_f 2.0
    domain-edge fit, each with its levels: the three default targets, raw
    delta_f 2.0, the degenerate level F-hat and, for the first fit, a
    level below F-hat; at raw delta_f 8.0, an N=50 fit of Sigma3 whose
    rays meet a Sigma failure inside a bracket."""
    edge_fit, edge_focal, edge_level = _selftest_case()
    assert edge_focal == focal
    fits, levels = [], []
    for label in ("Sigma1", "Sigma2", "Sigma3", "Sigma4"):
        cond = condition_at(label, 0.09)
        for n in (50, 200):
            s = wishart_sample(cond.sigma_pop, n, replication_rng(5, label, n, 0.09, 0))
            fits.append(fit_ml(cond.model, s, n=n))
    targets = DEFAULT_TARGETS + (ContourTarget(mode="delta_f", delta_f=2.0, scaling="raw"),)
    for res in fits:
        levels.append([f_target(target, res, n_focal=2) for target in targets] + [res.f_hat])
    levels[0].append(fits[0].f_hat - 1e-3)
    cond = condition_at("Sigma3", 0.09)
    s = wishart_sample(cond.sigma_pop, 50, replication_rng(0, "Sigma3", 50, 0.09, 0))
    fits.append(fit_ml(cond.model, s, n=50))
    levels.append([fits[-1].f_hat + 8.0, fits[-1].f_hat + 2.0])
    fits.append(edge_fit)
    levels.append([edge_level, edge_fit.f_hat])
    return fits, levels


class TestGroupRun:
    """Every (fit, level) width of a group run is its one-width call's, bit
    for bit, or raises the same class: on a stacked plane, on per-fit planes
    next to faulting stand-ins, and in any group order."""

    @pytest.mark.parametrize("n_directions", [90, 360])
    def test_each_width_is_its_one_width_call(self, group_case, focal, n_directions):
        fits, levels = group_case
        assert FocalPlane.stack([res.focal_objectives(focal) for res in fits]) is not None
        got = axis_widths_group(fits, levels, focal, n_directions)
        outcomes = []
        for res, fit_levels, widths in zip(fits, levels, got):
            assert len(widths) == len(fit_levels)
            for t, width in zip(fit_levels, widths):
                outcomes.append(_outcome(width))
                assert outcomes[-1] == _alone(res, t, focal, n_directions)
        # the cases the group must carry: a level below F-hat, a faulted
        # ray and degenerate widths
        assert {"ValueError", "NotPositiveDefinite"} <= set(outcomes)
        assert any(w.major == 0.0 for row in got for w in row if not isinstance(w, Exception))

    def test_group_order(self, group_case, focal):
        fits, levels = group_case
        want = axis_widths_group(fits, levels, focal, 90)
        order = np.random.default_rng(29).permutation(len(fits))
        got = axis_widths_group([fits[i] for i in order], [levels[i][::-1] for i in order],
                                focal, 90)
        for i, widths in zip(order, got):
            assert [_outcome(w) for w in widths[::-1]] == [_outcome(w) for w in want[i]]

    def test_fault_stays_with_its_fit(self, monkeypatch, group_case, focal):
        # stand-ins whose sweep ray at angle 0 meets NaN (a Sigma failure)
        # or a jump over the level (no root within tolerance) inside
        # radius 1, one whose golden search commits a NaN angle, next to a
        # walled stand-in (skipped rays, partial), a healthy one and the
        # sample fits: each width is still its one-width call's
        fits, levels = group_case
        q, n_dir = np.size(fits[0].theta_hat), _FAULTY_DIRECTIONS
        committed, _ = _golden_angles(monkeypatch, _sequential_golden, _Faulty())
        faulty = [_FaultyAt(focal, q, 0.0, 0.3, "nan"), _FaultyAt(focal, q, 0.0, 0.3, "jump"),
                  _FaultyAt(focal, q, committed[4 + 2 * 7], 1e-7, "nan"),
                  _WalledAt(focal, q), _FaultyAt(focal, q)]
        group = fits[:3] + faulty[:3] + fits[3:] + faulty[3:]
        group_levels = levels[:3] + [[_FAULTY_LEVEL]] * 3 + levels[3:] + [[_FAULTY_LEVEL]] * 2
        got = axis_widths_group(group, group_levels, focal, n_dir)
        assert [_outcome(w[0]) for w in got[3:6]] == [
            "NotPositiveDefinite", "RootAboveTolerance", "NotPositiveDefinite"]
        walled, healthy = got[-2][0], got[-1][0]
        assert walled.skipped == 6 and walled.partial
        assert not isinstance(healthy, Exception) and not healthy.skipped
        for res, fit_levels, widths in zip(group, group_levels, got):
            for t, width in zip(fit_levels, widths):
                assert _outcome(width) == _alone(res, t, focal, n_dir)

    def test_singular_plane_fails_its_own_fit(self, group_case, focal):
        # a fit whose focal plane raises: its widths are that error, and the
        # fit beside it keeps its one-fit widths
        fits, levels = group_case

        class _Singular(_FaultyAt):
            def focal_objectives(self, focal):
                raise SingularStructure("(I - A) is numerically singular")

        singular = _Singular(focal, np.size(fits[0].theta_hat))
        (wrong,), right = axis_widths_group([singular, fits[1]], [[_FAULTY_LEVEL], levels[1]],
                                            focal, 90)
        assert isinstance(wrong, SingularStructure)
        assert [_outcome(w) for w in right] == [_alone(fits[1], t, focal, 90) for t in levels[1]]

    def test_empty_group_and_argument_errors(self, group_case, focal):
        fits, levels = group_case
        assert axis_widths_group([], [], focal, 90) == []
        assert axis_widths_group(fits[:2], [[], []], focal, 90) == [[], []]
        with pytest.raises(ValueError, match="one sequence of levels per fit"):
            axis_widths_group(fits[:2], levels[:1], focal, 90)
        with pytest.raises(ValueError, match="n_directions must be at least 4"):
            axis_widths_group(fits[:2], levels[:2], focal, 2)


@pytest.fixture(scope="module")
def regression_fits():
    """Fits of :func:`helpers.regression_model` to draws at N 50/200/1000
    from four random population covariances (the w's correlate with the
    rest, so F-hat > 0), each with the closed forms of its focal pairs of
    paths: g, the focal gradient at theta-hat, and M = S_ff / psi-hat, so
    that F(theta-hat + d) = F-hat + g'd + d'Md exactly."""
    model = regression_model()
    paths = [model.theta_names.index(f"b{k}") for k in (1, 2, 3)]
    fits = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 6))
        sigma = a @ a.T + np.eye(6)
        for n in (50, 200, 1000):
            res = fit_ml(model, wishart_sample(sigma, n, rng), n=n)
            assert res.converged and not res.improper and res.df == 9
            psi = res.theta_hat[model.theta_names.index("psi")]
            g = 2.0 * (res.s[:3, :3] @ res.theta_hat[paths] - res.s[:3, 3]) / psi
            for pair in ((0, 1), (0, 2), (1, 2)):
                m = res.s[np.ix_(pair, pair)] / psi
                fits.append((res, (paths[pair[0]], paths[pair[1]]), g[list(pair)], m))
    return fits


class TestRegressionOracle:
    def test_exact_widths_match_the_chord_formula(self, regression_fits):
        # the chord through theta-hat along u is
        # w(u) = sqrt((g'u)^2 + 4 (u'Mu) c) / (u'Mu), c = T - F-hat; the
        # widths are its max and min over a dense grid of u on [0, pi).
        # Measured over these 108 widths: median 8.9e-11, max 3.5e-8
        # relative (F_TOL 1e-9)
        phi = np.arange(2**16) * (math.pi / 2**16)
        u = np.column_stack([np.cos(phi), np.sin(phi)])
        for res, focal_pair, g, m in regression_fits:
            for target in DEFAULT_TARGETS:
                t = f_target(target, res, n_focal=2)
                umu = np.einsum("ij,jk,ik->i", u, m, u)
                chord = np.sqrt((u @ g) ** 2 + 4.0 * umu * (t - res.f_hat)) / umu
                got = axis_widths_exact(res, t, focal_pair, 90)
                assert got.major == pytest.approx(chord.max(), rel=5e-6, abs=0.0)
                assert got.minor == pytest.approx(chord.min(), rel=5e-6, abs=0.0)

    def test_fpe_points_lie_on_the_quadratic(self, regression_fits):
        # measured: at most 9.99e-10 off the level; the rays' own
        # tolerance is F_TOL, and F is this quadratic up to rounding
        for res, focal_pair, g, m in regression_fits:
            for target in DEFAULT_TARGETS:
                t = f_target(target, res, n_focal=2)
                d = fpe_sample(res, target, focal_pair, 90)[:, focal_pair] - res.theta_hat[
                    list(focal_pair)
                ]
                level = res.f_hat + d @ g + np.einsum("ij,jk,ik->i", d, m, d)
                assert np.max(np.abs(level - t)) <= contour.F_TOL + 1e-12


class TestRegressionClosedForms:
    """The regression model's ML estimates, the b block of the Hessian, the
    contour levels and the quadratic widths in closed form.  The x block
    and y are saturated, so phi-hat = S_xx, b-hat = S_xx^-1 s_xy,
    psi-hat = s_yy - s_xy'b-hat, v-hat = diag(S_ww), and
    F-hat = ln|S_(x,y)| + ln s_w1 + ln s_w2 - ln|S|.  Each bound is the
    largest error measured over these 12 fits, with headroom."""

    @staticmethod
    def _fits(regression_fits):
        return list({id(res): res for res, *_ in regression_fits}.values())

    @staticmethod
    def _closed_form(res):
        s = res.s
        b = np.linalg.solve(s[:3, :3], s[:3, 3])
        psi = s[3, 3] - s[:3, 3] @ b
        f_hat = (np.linalg.slogdet(s[:4, :4])[1] + np.log(s[4, 4] * s[5, 5])
                 - np.linalg.slogdet(s)[1])
        return b, psi, f_hat

    def test_fit_ml(self, regression_fits):
        # measured: 3.4e-6 of each block's largest entry (grad_tol 1e-6 is
        # the limit); F-hat, flat at the optimum, 1.2e-11 relative
        for res in self._fits(regression_fits):
            names = res.model.theta_names
            b, psi, f_hat = self._closed_form(res)
            theta = dict(zip(names, res.theta_hat))
            got_b = np.array([theta[f"b{k}"] for k in (1, 2, 3)])
            assert np.max(np.abs(got_b - b)) <= 1e-5 * np.max(np.abs(b))
            assert theta["psi"] == pytest.approx(psi, rel=1e-5, abs=0.0)
            phi = np.array([[theta[f"phi{max(i, j) + 1}{min(i, j) + 1}"] for j in range(3)]
                            for i in range(3)])
            assert np.max(np.abs(phi - res.s[:3, :3])) <= 1e-5 * np.max(np.abs(res.s[:3, :3]))
            np.testing.assert_allclose([theta["v1"], theta["v2"]], np.diag(res.s)[4:],
                                       rtol=1e-5, atol=0.0)
            assert res.f_hat == pytest.approx(f_hat, rel=1e-10, abs=0.0)

    def test_hessian_path_block(self, regression_fits):
        # F is quadratic in the paths, with Hessian 2 S_xx / psi at every
        # point; measured 2.1e-12 of its largest entry
        for res in self._fits(regression_fits):
            names = res.model.theta_names
            paths = [names.index(f"b{k}") for k in (1, 2, 3)]
            want = 2.0 * res.s[:3, :3] / res.theta_hat[names.index("psi")]
            got = res.hessian_at_opt[np.ix_(paths, paths)]
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("target", [
        ContourTarget(mode="confidence", confidence=0.9),
        ContourTarget(mode="eps_tilde", epsilon_tilde=0.01),
        ContourTarget(mode="delta_f", delta_f=0.1, scaling="likelihood"),
        ContourTarget(mode="delta_f", delta_f=0.1, scaling="raw"),
        ContourTarget(mode="delta_f", delta_f=0.1, scaling="relative"),
    ], ids=["confidence", "eps_tilde", "likelihood", "raw", "relative"])
    def test_f_target(self, regression_fits, target):
        # chi-square with 2 df: the quantile is -2 ln(1 - level); measured
        # 1.2e-11 relative, the error of F-hat
        for res in self._fits(regression_fits):
            f_hat, n, df = self._closed_form(res)[2], res.n, res.df
            if target.mode == "confidence":
                want = f_hat - 2.0 * math.log(1.0 - target.confidence) / (n - 1)
            elif target.mode == "eps_tilde":
                eps = math.sqrt(max(f_hat / df - 1.0 / (n - 1), 0.0))
                want = df * ((eps + target.epsilon_tilde) ** 2 + 1.0 / (n - 1))
            else:
                want = {"likelihood": f_hat + 2.0 * target.delta_f / (n - 1),
                        "raw": f_hat + target.delta_f,
                        "relative": f_hat * (1.0 + target.delta_f)}[target.scaling]
            assert f_target(target, res, n_focal=2) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_axis_widths_quadratic(self, regression_fits):
        # widths 2 sqrt(2c / lambda) over the eigenvalues lambda of
        # 2 S_ff / psi-hat; measured 4.0e-12 relative
        for res, focal_pair, _, m in regression_fits:
            for target in DEFAULT_TARGETS:
                t = f_target(target, res, n_focal=2)
                want = 2.0 * np.sqrt(2.0 * (t - res.f_hat) / np.linalg.eigvalsh(2.0 * m))
                got = axis_widths_quadratic(res, t, focal_pair)
                assert got.major == pytest.approx(want[0], rel=2e-11, abs=0.0)
                assert got.minor == pytest.approx(want[1], rel=2e-11, abs=0.0)


class TestFpeSampleDirections:
    def test_degenerate_count_matches_sweep(self, popfits, focal):
        res = popfits["Sigma1"]
        live = ContourTarget(mode="confidence")
        flat = ContourTarget(mode="delta_f", delta_f=0.0)
        for n_dir in (7, 8):
            assert len(fpe_sample(res, flat, focal, n_dir)) == len(
                fpe_sample(res, live, focal, n_dir)
            ) == n_dir + n_dir % 2

    def test_degenerate_target_validates(self, popfits, focal):
        res = popfits["Sigma1"]
        flat = ContourTarget(mode="delta_f", delta_f=0.0)
        with pytest.raises(ValueError, match="two focal"):
            fpe_sample(res, flat, (*focal, 0), 24)
        with pytest.raises(ValueError, match="at least 4"):
            fpe_sample(res, flat, focal, 2)


# each public contour function, called at level t
_AT_LEVEL = {
    "sweep_contour": lambda fit, t, focal: sweep_contour(fit, t, focal, 8),
    "axis_widths_quadratic": axis_widths_quadratic,
    "axis_widths_exact": lambda fit, t, focal: axis_widths_exact(fit, t, focal, 8),
}


class TestLevelRule:
    @pytest.mark.parametrize("name", sorted(_AT_LEVEL))
    def test_below_minimum_raises(self, popfits, focal, name):
        # warnings are errors: a negative c = T - F-hat must be rejected before
        # it reaches the quadratic start radius sqrt(2 c / curvature)
        res = popfits["Sigma3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must not be below the fitted discrepancy"):
                _AT_LEVEL[name](res, res.f_hat - 1e-3, focal)

    @pytest.mark.parametrize("name", sorted(_AT_LEVEL))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.1", None, True])
    def test_unreal_level_raises(self, popfits, focal, name, bad):
        # a NaN level failed inside a bracketed ray or the widths' own check,
        # inf gave infinite quadratic widths, a string or None a TypeError,
        # and True was the level 1.0
        res = popfits["Sigma1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t_target must be a finite real number"):
                _AT_LEVEL[name](res, bad, focal)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.1", None, True])
    def test_unreal_level_fails_its_own_width(self, popfits, focal, bad):
        res = popfits["Sigma1"]
        level = res.f_hat + 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (wrong, right), (alone,) = axis_widths_group([res, res], [[bad, level], [level]],
                                                         focal, 8)
        assert isinstance(wrong, ValueError) and "t_target must be a finite real" in str(wrong)
        assert _outcome(right) == _outcome(alone) == _alone(res, level, focal, 8)

    @pytest.mark.parametrize("name", sorted(_AT_LEVEL))
    def test_at_minimum_is_degenerate(self, popfits, focal, name):
        res = popfits["Sigma3"]
        got = _AT_LEVEL[name](res, res.f_hat, focal)
        if name == "sweep_contour":
            angles, radii, thetas = got
            np.testing.assert_array_equal(angles, 2.0 * math.pi * np.arange(8) / 8)
            np.testing.assert_array_equal(radii, np.zeros(8))
            np.testing.assert_array_equal(thetas, np.tile(res.theta_hat, (8, 1)))
        else:
            assert got.major == got.minor == 0.0
            # both width functions give the focal Hessian's eigenvectors
            quad = axis_widths_quadratic(res, res.f_hat, focal)
            np.testing.assert_array_equal(got.major_direction, quad.major_direction)
            np.testing.assert_array_equal(got.minor_direction, quad.minor_direction)


class TestFocalIndices:
    @pytest.mark.parametrize("name", sorted(_AT_LEVEL) + ["focal_objectives"])
    @pytest.mark.parametrize(
        "bad, match",
        [((0, 14), "0..13"), ((5, -1), "0..13"), ((5, 5), "distinct"),
         ((5.5, 6.9), "focal index must be an integer"),
         ((True, 6), "focal index must be an integer"), ((), "must not be empty")],
    )
    def test_bad_focal_raises(self, popfits, name, bad, match):
        # -1 would wrap to the last parameter, a repeat would give a singular
        # focal block: both are rejected before any ray is solved.  The fit's
        # focal plane takes the same rule: there -1 would match every fixed
        # entry of A and S, and an index past q would drop its offset.  A
        # float index was truncated, True read as 1, and an empty tuple
        # ended in an IndexError or an empty plane
        res = popfits["Sigma3"]
        at_level = _AT_LEVEL.get(name, lambda fit, t, focal: fit.focal_objectives(focal))
        with pytest.raises(ValueError, match=match):
            at_level(res, res.f_hat + 0.01, bad)


_TARGETS = st.one_of(
    st.builds(ContourTarget, mode=st.just("confidence"), confidence=st.floats(0.5, 0.99)),
    st.builds(ContourTarget, mode=st.just("eps_tilde"), epsilon_tilde=st.floats(0.0, 0.1)),
    st.builds(ContourTarget, mode=st.just("delta_f"), delta_f=st.floats(0.0, 2.0),
              scaling=st.sampled_from(contour.SCALINGS)),
)


class TestDeclaredErrorsOnly:
    @settings(deadline=None, max_examples=120)
    @given(seed=st.integers(0, 2**32 - 1), canonical=st.booleans(), n=st.integers(10, 50),
           target=_TARGETS)
    def test_only_declared_errors_escape(self, seed, canonical, n, target):
        # random models and small canonical samples, random focal pairs (so
        # the rows the pair reaches run from one to all), every target out
        # to raw offsets of 2.0: only the package's own errors and
        # ValueError may escape, and warnings are errors here
        rng = np.random.default_rng(seed)
        if canonical:
            cond = condition_at(str(rng.choice(["Sigma1", "Sigma2", "Sigma3", "Sigma4"])),
                                float(rng.choice([0.0, 0.09])))
            model, s = cond.model, wishart_sample(cond.sigma_pop, n, rng)
        else:
            model, _, s = random_model(rng)
        try:
            res = fit_ml(model, s, n=n)
            focal = tuple(int(i) for i in rng.choice(model.q, 2, replace=False))
            t = f_target(target, res, n_focal=2)
            axis_widths_exact(res, t, focal, 12)
            fpe_sample(res, target, focal, 12)
        except (FungibleError, ValueError):
            pass
