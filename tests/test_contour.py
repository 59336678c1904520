import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from fungible import (
    AxisWidths,
    ContourEscapesDomain,
    ContourTarget,
    NotPositiveDefinite,
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
    radial_contour_point,
    replication_rng,
    sweep_contour,
    wishart_sample,
)
from fungible import contour
from fungible._solve import golden_max
from fungible.simstudy import DEFAULT_TARGETS
from helpers import (
    QuadraticSurrogate,
    RowMapped,
    reference_bracket_level,
    reference_bracketed_root,
    reference_golden_max,
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
        t = f_target(ContourTarget(mode="eps_tilde", epsilon_tilde=0.005), fit, df=9)
        assert t == pytest.approx(9 * (0.035 ** 2 + 1 / 199), abs=1e-12)

    def test_sample_size_required(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.1, n=None)
        for target in (
            ContourTarget(mode="delta_f"),
            ContourTarget(mode="confidence"),
        ):
            with pytest.raises(ValueError, match="sample size"):
                f_target(target, fit)

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
    def test_quadratic_surrogate_axes(self):
        fit = QuadraticSurrogate(np.diag([4.0, 1.0]))
        theta = radial_contour_point(fit, (0.0, 1.0), 0.02, (0, 1))
        assert np.linalg.norm(theta) == pytest.approx(0.2, abs=1e-6)
        theta = radial_contour_point(fit, (1.0, 0.0), 0.02, (0, 1))
        assert np.linalg.norm(theta) == pytest.approx(0.1, abs=1e-6)

    def test_defining_residual_on_real_fit(self, conditions, popfits, focal):
        res = popfits["Sigma1"]
        t = f_target(ContourTarget(mode="confidence"), res, n_focal=2)
        rng = np.random.default_rng(1)
        for _ in range(8):
            angle = rng.uniform(0, 2 * math.pi)
            theta = radial_contour_point(res, (math.cos(angle), math.sin(angle)), t, focal)
            assert abs(f_ml(res.model, theta, res.s) - t) <= 1e-9

    def test_level_below_minimum_rejected(self):
        fit = QuadraticSurrogate(np.eye(2), f_hat=0.5)
        with pytest.raises(ValueError):
            radial_contour_point(fit, (1.0, 0.0), 0.4, (0, 1))

    def test_zero_direction_rejected(self):
        fit = QuadraticSurrogate(np.eye(2))
        with pytest.raises(ValueError):
            radial_contour_point(fit, (0.0, 0.0), 0.1, (0, 1))

    def test_flat_direction_escapes(self):
        class FlatFit(RowMapped):
            theta_hat = np.zeros(2)
            f_hat = 0.0
            n = None

            def objective(self, theta):
                return 0.5 * theta[0] ** 2  # ignores theta[1]

        with pytest.raises(ContourEscapesDomain):
            radial_contour_point(FlatFit(), (0.0, 1.0), 0.02, (0, 1))

    def test_domain_edge_escapes(self):
        class BoundedFit(RowMapped):
            # Sigma fails (F is NaN) beyond radius 2
            theta_hat = np.zeros(2)
            f_hat = 0.0
            n = None

            def objective(self, theta):
                r = float(np.linalg.norm(theta))
                return math.nan if r > 2.0 else 1e-3 * r * r

        with pytest.raises(ContourEscapesDomain):
            radial_contour_point(BoundedFit(), (1.0, 0.0), 0.02, (0, 1))


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
        assert len(a) == len(b) == 16
        for pa, pb in zip(a, b):
            assert pa.r == pb.r
            np.testing.assert_array_equal(pa.theta, pb.theta)

    def test_fpe_degenerate_target(self, popfits, focal):
        res = popfits["Sigma1"]
        target = ContourTarget(mode="delta_f", delta_f=0.0)
        points = fpe_sample(res, target, focal, 24)
        assert len(points) == 24
        for theta in points:
            np.testing.assert_array_equal(theta, res.theta_hat)

    def test_fpe_residuals_and_count(self, popfits, focal):
        res = popfits["Sigma2"]
        target = ContourTarget(mode="eps_tilde", epsilon_tilde=0.005)
        points = fpe_sample(res, target, focal, 30)
        t = f_target(target, res, n_focal=2)
        assert len(points) == 30
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
            solved = {pt.angle: pt.r for pt in sweep_contour(res, t, focal_pair, 16)}
            for k in range(16):
                angle = 2.0 * math.pi * k / 16
                unit = np.array([math.cos(angle), math.sin(angle)])
                want = _reference_radius(res, unit / np.linalg.norm(unit), focal_pair, t)
                if math.isnan(want):
                    assert angle not in solved
                else:
                    assert solved[angle] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_domain_edge_case_solves(self):
        # this case used to end in numpy's LinAlgError during the domain-edge
        # bisection, which no caller caught
        res, focal, t = _selftest_case()
        widths = axis_widths_exact(res, t, focal, 90)
        assert widths.major >= widths.minor > 0.0
        for pt in sweep_contour(res, t, focal, 90):
            assert abs(f_ml(res.model, pt.theta, res.s) - t) <= 1e-9


class _Counting:
    """A fit that counts its stacked ``objectives`` calls."""

    def __init__(self, fit):
        self._fit = fit
        self.rows = []

    def __getattr__(self, name):
        return getattr(self._fit, name)

    def objectives(self, thetas):
        self.rows.append(len(thetas))
        return self._fit.objectives(thetas)


class _Faulty(RowMapped):
    """Duck-typed fit: an anisotropic bowl whose objective fails inside
    radius 1 within ``half_width`` of ``bad_angle``.  ``kind`` "nan" makes
    it NaN there (a Sigma failure inside the bracket); "jump" makes it jump
    over the level there, so no root meets the tolerance."""

    theta_hat = np.zeros(2)
    f_hat = 0.0
    n = None
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


_FAULTY_LEVEL, _FAULTY_DIRECTIONS = 0.02, 8


def _sequential_golden(f, a, b, *, x_tol, max_iter=200):
    """The step-by-step refinement: ``helpers.reference_golden_max`` over the
    engine's stacked widths, raising as soon as a step's rays fault."""
    def values(x, which):
        out, fault = f(x, which)
        contour._raise_faults(fault)
        return out

    x_best, f_best = reference_golden_max(values, a, b, x_tol=x_tol, max_iter=max_iter)
    return x_best, f_best, np.zeros(len(x_best), dtype=int)


def _golden_angles(monkeypatch, search, fit):
    """Every refinement angle ``search`` evaluates on ``fit``, with the
    sum of the fault codes the stacked ray solves reported."""
    seen, faults = [], [0]

    def recording(f, a, b, **kw):
        def wrapped(x, which):
            seen.extend(x)
            out, fault = f(x, which)
            faults[0] += int(np.sum(fault))
            return out, fault

        return search(wrapped, a, b, **kw)

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
            "6aab83dfda8346063686d781e2a2b186959ff4f35628f787bd3fdddb2749b7ad"
        )

    def test_stacked_evaluation_count(self, popfits, focal):
        # the criterion-05 fit at 90 directions: the step-by-step refinement
        # took 162 stacked evaluations (1,126 rows)
        fit = _Counting(popfits["Sigma1"])
        t = f_target(ContourTarget(mode="confidence", confidence=0.95), fit, n_focal=2)
        axis_widths_exact(fit, t, focal, 90)
        assert (len(fit.rows), sum(fit.rows)) == (66, 1862)

    @pytest.mark.parametrize("kind", ["nan", "jump"])
    def test_speculative_fault_is_discarded(self, monkeypatch, kind):
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

    @pytest.mark.parametrize("kind, error", [("nan", NotPositiveDefinite), ("jump", RuntimeError)])
    def test_committed_fault_raises(self, monkeypatch, kind, error):
        clean = _Faulty()
        committed, _ = _golden_angles(monkeypatch, _sequential_golden, clean)
        swept = 2.0 * math.pi * np.arange(_FAULTY_DIRECTIONS) / _FAULTY_DIRECTIONS
        # a point of the third round, away from the swept directions
        angle = committed[4 + 2 * 7]
        assert _distance_mod_pi(np.array([angle]), swept)[0] > 1e-3
        fit = _Faulty(angle, 1e-7, kind)
        with pytest.raises(error):
            axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)
        monkeypatch.setattr(contour, "golden_max", _sequential_golden)
        with pytest.raises(error):
            axis_widths_exact(fit, _FAULTY_LEVEL, (0, 1), _FAULTY_DIRECTIONS)


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
    "radial_contour_point": lambda fit, t, focal: radial_contour_point(fit, (1.0, 2.0), t, focal),
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
    def test_at_minimum_is_degenerate(self, popfits, focal, name):
        res = popfits["Sigma3"]
        got = _AT_LEVEL[name](res, res.f_hat, focal)
        if name == "radial_contour_point":
            np.testing.assert_array_equal(got, res.theta_hat)
        elif name == "sweep_contour":
            assert [pt.angle for pt in got] == list(2.0 * math.pi * np.arange(8) / 8)
            for pt in got:
                assert pt.r == 0.0 and pt.f_value == res.f_hat
                np.testing.assert_array_equal(pt.theta, res.theta_hat)
        else:
            assert got.major == got.minor == 0.0
            # both width functions give the focal Hessian's eigenvectors
            quad = axis_widths_quadratic(res, res.f_hat, focal)
            np.testing.assert_array_equal(got.major_direction, quad.major_direction)
            np.testing.assert_array_equal(got.minor_direction, quad.minor_direction)


class TestFocalIndices:
    @pytest.mark.parametrize("name", sorted(_AT_LEVEL))
    @pytest.mark.parametrize(
        "bad, match", [((0, 14), "0..13"), ((5, -1), "0..13"), ((5, 5), "distinct")]
    )
    def test_bad_focal_raises(self, popfits, name, bad, match):
        # -1 would wrap to the last parameter, a repeat would give a singular
        # focal block: both are rejected before any ray is solved
        res = popfits["Sigma3"]
        with pytest.raises(ValueError, match=match):
            _AT_LEVEL[name](res, res.f_hat + 0.01, bad)
