import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungible import (
    NotPositiveDefinite,
    SingularStructure,
    chisq_quantile,
    condition_at,
    f_from_rmsea,
    f_ml,
    f_ml_stack,
    fit_ml,
    gradient,
    hessian,
    make_model,
    replication_rng,
    rmsea_from_f,
    sigma_of_theta,
    wishart_sample,
)
from fungible.discrepancy import (
    SIGMA_NOT_PD,
    SINGULAR_STRUCTURE,
    _grad_from_implied,
    _logdet_s,
    evaluate_stack,
)
from helpers import (
    diag_model,
    feedback_model,
    finite_diff_gradient,
    loop_hessian,
    permute_observed,
    random_model,
    reference_f_ml,
    reference_grad_from_implied,
    saturated_1var,
    shared_entry_model,
)


class TestFml:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model, theta, _ = random_model(rng)
            sigma = sigma_of_theta(model, theta)
            assert f_ml(model, theta, sigma) < 1e-12

    def test_scalar_case(self):
        # p=1, S=[2], Sigma=[1]: ln 1 - ln 2 + 2/1 - 1 = 1 - ln 2
        model = saturated_1var()
        assert f_ml(model, [1.0], [[2.0]]) == pytest.approx(1 - math.log(2), abs=1e-12)

    def test_diagonal_case(self):
        # p=2, S=I, Sigma=2I: 2 ln 2 + 1 - 2
        model = diag_model(2)
        expected = 2 * math.log(2) - 1
        assert f_ml(model, [2.0, 2.0], np.eye(2)) == pytest.approx(expected, abs=1e-12)

    def test_not_pd_sample(self):
        model = diag_model(2)
        with pytest.raises(NotPositiveDefinite) as err:
            f_ml(model, [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]])
        assert err.value.which == "s"

    def test_not_pd_implied(self):
        model = diag_model(2)
        with pytest.raises(NotPositiveDefinite) as err:
            f_ml(model, [-1.0, 1.0], np.eye(2))
        assert err.value.which == "sigma_theta"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model, theta, s = random_model(rng)
            perm = rng.permutation(model.n_observed)
            pmodel = permute_observed(model, perm)
            ps = s[np.ix_(perm, perm)]
            assert f_ml(pmodel, theta, ps) == pytest.approx(
                f_ml(model, theta, s), rel=1e-12, abs=1e-12
            )


def _f_ml_or_nan(model, theta, s):
    try:
        return f_ml(model, theta, s)
    except (NotPositiveDefinite, SingularStructure):
        return math.nan


def _assert_matches_scalar(model, thetas, s):
    got = f_ml_stack(model, thetas, s)
    want = np.array([_f_ml_or_nan(model, theta, s) for theta in thetas])
    # each row of the stack is the one-row evaluation, bit for bit
    np.testing.assert_array_equal(got, want)
    ok = ~np.isnan(want)
    reference = [reference_f_ml(model, theta, s) for theta in thetas[ok]]
    np.testing.assert_allclose(got[ok], reference, rtol=1e-10, atol=0.0)
    return want


class TestFmlStack:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model, theta, s = random_model(rng)
        # moves of growing size away from theta; the large ones often turn
        # variances negative, and the last row always does (Sigma not pd)
        scales = np.repeat([0.0, 0.05, 0.5, 2.0], 5)
        thetas = theta + scales[:, None] * rng.standard_normal((len(scales), model.q))
        broken = theta.copy()
        broken[model.variance_param_mask] = -1.0
        want = _assert_matches_scalar(model, np.vstack([thetas, broken]), s)
        assert np.isnan(want[-1]) and not np.isnan(want[0])

    def test_singular_structure_rows(self):
        # x <-> y feedback loop: (I - A) is singular where b1 * b2 = 1
        model = make_model(
            ["x", "y"],
            [],
            [{"row": "y", "col": "x", "param": "b1"}, {"row": "x", "col": "y", "param": "b2"}],
            [{"row": "x", "col": "x", "value": 1.0}, {"row": "y", "col": "y", "value": 1.0}],
        )
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        thetas = np.array([[0.3, 0.2], [2.0, 0.5], [0.5, 0.5], [1.0, 1.0], [-0.4, 0.1]])
        want = _assert_matches_scalar(model, thetas, s)
        assert list(np.isnan(want)) == [False, True, False, True, False]

    def test_lu_failure_after_cholesky(self):
        # A point on a contour ray's domain edge, met while bisecting toward
        # it on one replication of Sigma3 at N=50, epsilon .09: Sigma passes
        # its Cholesky test, but LU in the trace solve can meet an exact zero
        # pivot there.  That used to escape as numpy's LinAlgError.
        cond = condition_at("Sigma3", 0.09)
        s = wishart_sample(cond.sigma_pop, 50, replication_rng(1, "Sigma3", 50, 0.09, 0))
        res = fit_ml(cond.model, s, n=50)
        theta = np.array([float.fromhex(h) for h in (
            "0x1.158ee243f56f1p-1", "0x1.bebf031369e35p-1", "0x1.8ffe837dbbbbbp-1",
            "0x1.43a5173f55267p+0", "0x1.bc01de2867485p-3", "-0x1.b5d7cad70afe0p-6",
            "0x1.b9ae6b8487df8p-1", "0x1.36b53a078102ap-1", "0x1.e7ad107fed809p-2",
            "0x1.e96a2d3ac2821p-2", "-0x1.750acb6c0101fp-1", "0x1.957968a994543p-1",
            "0x1.6af3aa36bfcdap-1", "0x1.4f52cdfb7a97cp-2",
        )])
        try:
            f_ml(cond.model, theta, res.s)
        except NotPositiveDefinite as err:
            assert err.which == "sigma_theta"
        _assert_matches_scalar(cond.model, theta[None, :], res.s)
        np.testing.assert_array_equal(
            res.objectives(theta[None, :]), f_ml_stack(cond.model, theta[None, :], res.s)
        )

    def test_trace_solves_only_pd_rows(self, conditions, monkeypatch):
        # the canonical model is recursive, so every np.linalg.solve call of
        # an evaluation is F's trace solve; rows that fail Cholesky skip it
        cond = conditions["Sigma1"]
        broken = cond.theta_star.copy()
        broken[cond.model.variance_param_mask] = -1.0
        solved_rows = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            solved_rows.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        f_bad = f_ml_stack(cond.model, np.tile(broken, (3, 1)), cond.sigma_pop)
        assert np.isnan(f_bad).all() and solved_rows == []
        mixed = np.array([cond.theta_star, broken, 1.1 * cond.theta_star, broken])
        f_mixed = f_ml_stack(cond.model, mixed, cond.sigma_pop)
        assert list(np.isnan(f_mixed)) == [False, True, False, True]
        assert solved_rows == [2]

    def test_shape_and_finiteness_checked(self):
        model = diag_model(2)
        with pytest.raises(ValueError):
            f_ml_stack(model, np.ones(2), np.eye(2))
        with pytest.raises(ValueError):
            f_ml_stack(model, np.array([[1.0, np.inf]]), np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            f_ml_stack(model, np.ones((1, 2)), [[1.0, 2.0], [2.0, 1.0]])
        assert f_ml_stack(model, np.empty((0, 2)), np.eye(2)).shape == (0,)


class TestGradient:
    def test_saturated_scalar(self):
        # d/dtheta [ln theta + s/theta] = 1/theta - s/theta^2 = 1 - 2 = -1
        model = saturated_1var()
        grad = gradient(model, [1.0], [[2.0]])
        assert grad[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            model, theta, s = random_model(rng)
            g_a = gradient(model, theta, s)
            g_fd = finite_diff_gradient(model, theta, s)
            err = np.abs(g_a - g_fd).max()
            assert err <= 1e-6 * max(1.0, np.abs(g_a).max())

    def test_shared_parameter_entries(self):
        # one loading and one unique variance shared by three indicators:
        # each parameter's derivative sums the terms of its three entries
        model = make_model(
            ["x1", "x2", "x3"],
            ["f"],
            [{"row": f"x{i}", "col": "f", "param": "l"} for i in (1, 2, 3)],
            [{"row": f"x{i}", "col": f"x{i}", "param": "u"} for i in (1, 2, 3)]
            + [{"row": "f", "col": "f", "value": 1.0}],
        )
        s = np.array([[1.0, 0.4, 0.3], [0.4, 1.1, 0.35], [0.3, 0.35, 0.9]])
        theta = np.array([0.6, 0.5])
        g_a = gradient(model, theta, s)
        assert np.abs(g_a - finite_diff_gradient(model, theta, s)).max() <= 1e-6
        np.testing.assert_array_equal(hessian(model, theta, s), loop_hessian(model, theta, s))

    def test_sigma_not_invertible_after_cholesky(self):
        # x <-> y feedback loop: Sigma passes its Cholesky test but LU meets
        # an exact zero pivot; f_ml and gradient name the same fault
        model = feedback_model()
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        theta = [1.00001, 0.99999, 1e-6]
        for fn in (f_ml, gradient):
            with pytest.raises(NotPositiveDefinite) as err:
                fn(model, theta, s)
            assert err.value.which == "sigma_theta"

    def test_zero_at_minimizer(self):
        rng = np.random.default_rng(5)
        model, theta, _ = random_model(rng)
        sigma = sigma_of_theta(model, theta)
        assert np.abs(gradient(model, theta, sigma)).max() < 1e-10


def _shared_loading_model():
    """One loading and one unique variance, each shared by three indicators."""
    return make_model(
        ["x1", "x2", "x3"],
        ["f"],
        [{"row": f"x{i}", "col": "f", "param": "l"} for i in (1, 2, 3)],
        [{"row": f"x{i}", "col": f"x{i}", "param": "u"} for i in (1, 2, 3)]
        + [{"row": "f", "col": "f", "value": 1.0}],
    )


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGradientBytes:
    """The gradient's one bincount adds each parameter's terms in free-entry
    order, from 0.0, as ``np.add.at`` does: same sums, same signed zeros."""

    def _assert_matches_add_at(self, model, thetas, s):
        fault, _, implied = evaluate_stack(model, thetas, s, _logdet_s(s))
        assert not fault.any()
        _assert_same_bytes(_grad_from_implied(model, s, *implied),
                           reference_grad_from_implied(model, s, *implied))
        for row in range(len(thetas)):
            one = [mat[row] for mat in implied]
            _assert_same_bytes(_grad_from_implied(model, s, *one),
                               reference_grad_from_implied(model, s, *one))

    def test_shared_parameter_entries(self):
        model = _shared_loading_model()
        s = np.array([[1.0, 0.4, 0.3], [0.4, 1.1, 0.35], [0.3, 0.35, 0.9]])
        thetas = np.array([[0.6, 0.5], [0.0, 0.5], [-0.0, 0.7], [-0.3, 1.2]])
        self._assert_matches_add_at(model, thetas, s)
        # t sits on an A entry, an S covariance and an S diagonal
        model = shared_entry_model()
        s = np.array([[1.3, 0.5, 0.8], [0.5, 0.9, 0.4], [0.8, 0.4, 1.5]])
        thetas = np.array([
            [0.5, 0.6, 0.7, 1.0, 1.0],
            [0.3, 0.8, 0.4, 1.2, 0.9],
            [-0.2, 0.7, 0.5, 1.1, 1.3],
            [0.4, -0.6, 0.0, 0.9, 1.4],
        ])
        self._assert_matches_add_at(model, thetas, s)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_models(self, seed):
        rng = np.random.default_rng(seed)
        model, theta, s = random_model(rng)
        thetas = theta + 0.05 * rng.standard_normal((4, model.q))
        # rows with every effect at +0.0 or -0.0
        for zero in (0.0, -0.0):
            row = theta.copy()
            row[~model.variance_param_mask] = zero
            thetas = np.vstack([thetas, row])
        self._assert_matches_add_at(model, thetas, s)


def _mixed_rows(model, theta, k, rng, singular=None):
    """k parameter vectors near theta; every third is not positive definite
    (variances at -1), and with a ``singular`` vector every fifth is that."""
    thetas = theta + 0.1 * rng.standard_normal((k, model.q))
    thetas[1::3, model.variance_param_mask] = -1.0
    if singular is not None:
        thetas[3::5] = singular
    return thetas


class TestStackRowsBytes:
    """Every row of a stacked evaluation is that row's one-row evaluation,
    byte for byte: F, fault code and implied matrices."""

    def _assert_rows_match(self, model, thetas, s):
        ld_s = _logdet_s(s)
        fault, f, implied = evaluate_stack(model, thetas, s, ld_s)
        assert fault.shape == f.shape == (len(thetas),)
        kept = 0  # the implied stacks hold the rows whose (I - A) is usable
        for row in range(len(thetas)):
            fault_1, f_1, implied_1 = evaluate_stack(model, thetas[row:row + 1], s, ld_s)
            assert fault[row] == fault_1[0]
            _assert_same_bytes(f[row], f_1[0])
            if fault_1[0] != SINGULAR_STRUCTURE:
                for mat, mat_1 in zip(implied, implied_1):
                    _assert_same_bytes(mat[kept], mat_1[0])
                kept += 1
        assert all(len(mat) == kept for mat in implied)
        return fault

    @pytest.mark.parametrize("k", [1, 2, 28, 300])
    def test_single_step_model(self, conditions, k):
        cond = conditions["Sigma1"]
        rng = np.random.default_rng(k)
        thetas = _mixed_rows(cond.model, cond.theta_star, k, rng)
        fault = self._assert_rows_match(cond.model, thetas, cond.sigma_pop)
        assert (fault == SIGMA_NOT_PD).sum() == len(thetas[1::3])

    @pytest.mark.parametrize("k", [1, 2, 28, 300])
    def test_solved_model(self, k):
        # x <-> y feedback loop: (I - A) is solved, and singular at b1 * b2 = 1
        model = feedback_model()
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        rng = np.random.default_rng(k)
        thetas = _mixed_rows(model, np.array([0.3, 0.2, 0.8]), k, rng, singular=[2.0, 0.5, 0.8])
        if k > 2:
            # Sigma passes its Cholesky test, then its solve meets a zero pivot
            thetas[2] = [1.00001, 0.99999, 1e-6]
        fault = self._assert_rows_match(model, thetas, s)
        assert (fault == SINGULAR_STRUCTURE).sum() == len(thetas[3::5])
        assert (fault == SIGMA_NOT_PD).sum() >= len(thetas[1::3]) - len(thetas[3::5])


class TestHessian:
    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        model, theta, s = random_model(rng)
        h = hessian(model, theta, s)
        assert (h == h.T).all()

    def test_saturated_scalar_curvature(self):
        # f'' = -1/theta^2 + 2 s/theta^3 = -1 + 4 = 3 at theta=1, s=2
        model = saturated_1var()
        h = hessian(model, [1.0], [[2.0]])
        assert h[0, 0] == pytest.approx(3.0, rel=1e-6)

    def test_psd_at_minimizer(self, conditions):
        cond = conditions["Sigma1"]
        h = hessian(cond.model, cond.theta_star, cond.sigma_pop)
        assert np.linalg.eigvalsh(h).min() > -1e-8

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_gradient_loop(self, seed):
        model, theta, s = random_model(np.random.default_rng(seed))
        got = hessian(model, theta, s)
        want = loop_hessian(model, theta, s)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "theta, expected",
        [
            # theta - h e_3 turns the free variance negative: Sigma not pd
            ([0.5, 0.5, 1e-6], NotPositiveDefinite),
            # theta + h e_1 puts b1 * b2 at 1, before that -h e_3 point
            ([0.99999, 1.0, 1e-6], SingularStructure),
            # Sigma passes its Cholesky test but not the inversion
            ([1.0, 0.99999, 1e-6], NotPositiveDefinite),
        ],
    )
    def test_domain_errors_match_gradient_loop(self, theta, expected):
        model = feedback_model()
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        errors = []
        for fn in (hessian, loop_hessian):
            with pytest.raises((NotPositiveDefinite, SingularStructure, np.linalg.LinAlgError)) as err:
                fn(model, theta, s)
            errors.append((err.type, getattr(err.value, "which", None)))
        assert errors[0] == errors[1]
        assert errors[0][0] is expected


class TestRmseaConversions:
    def test_perfect_fit(self):
        assert rmsea_from_f(0.0, 5, population=True) == 0.0
        assert rmsea_from_f(0.0, 5, 100) == 0.0

    def test_population_inversion(self):
        assert rmsea_from_f(9 * 0.03 ** 2, 9, population=True) == pytest.approx(
            0.03, abs=1e-15
        )

    def test_sample_truncation(self):
        # f/df = 9e-4 is below 1/(n-1): the max() clamps to zero
        assert rmsea_from_f(9 * 0.0009, 9, 1000) == 0.0

    def test_population_forward(self):
        assert f_from_rmsea(0.005, 9, population=True) == pytest.approx(2.25e-4, abs=1e-18)
        assert f_from_rmsea(0.0, 9, population=True) == 0.0

    def test_sample_round_trip_example(self):
        f = f_from_rmsea(0.09, 9, 200)
        assert rmsea_from_f(f, 9, 200) == pytest.approx(0.09, abs=1e-12)

    @settings(deadline=None)
    @given(
        # interior of the non-truncated branch: at eps = 0 (the truncation
        # boundary) or eps^2 below the rounding floor of 1/(n-1), one ulp
        # amplifies through the square root and the inverse cannot hold
        eps=st.floats(1e-4, 0.3),
        df=st.integers(1, 30),
        n=st.integers(2, 100000),
    )
    def test_round_trip_sample(self, eps, df, n):
        assert rmsea_from_f(f_from_rmsea(eps, df, n), df, n) == pytest.approx(
            eps, abs=1e-12
        )

    @settings(deadline=None)
    @given(eps=st.floats(0.0, 0.5), df=st.integers(1, 30))
    def test_round_trip_population(self, eps, df):
        f = f_from_rmsea(eps, df, population=True)
        assert rmsea_from_f(f, df, population=True) == pytest.approx(eps, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rmsea_from_f(1.0, 0, population=True)
        with pytest.raises(ValueError):
            rmsea_from_f(1.0, 5)
        with pytest.raises(ValueError):
            f_from_rmsea(-0.1, 5, population=True)


class TestChisqQuantile:
    def test_closed_form_two_df(self):
        # exponential case: quantile = -2 ln(1 - p)
        assert chisq_quantile(2, 0.95) == pytest.approx(-2 * math.log(0.05), abs=1e-8)

    def test_one_df(self):
        from scipy.special import gammainc

        x = chisq_quantile(1, 0.95)
        assert x == pytest.approx(3.841459, abs=1e-6)
        assert gammainc(0.5, x / 2) == pytest.approx(0.95, abs=1e-10)

    def test_contract_residual(self):
        from scipy.special import gammainc

        for df in (1, 3, 9, 20):
            for prob in (0.05, 0.5, 0.95, 0.999):
                x = chisq_quantile(df, prob)
                assert abs(gammainc(df / 2, x / 2) - prob) <= 1e-10

    def test_strictly_increasing_in_prob(self):
        for df in (1, 2, 5, 9):
            values = [chisq_quantile(df, p) for p in (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_df(self):
        values = [chisq_quantile(df, 0.9) for df in range(1, 25)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_prob_limit(self):
        x = chisq_quantile(4, 1e-12)
        assert 0.0 < x < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            chisq_quantile(0, 0.5)
        with pytest.raises(ValueError):
            chisq_quantile(3, 1.0)
