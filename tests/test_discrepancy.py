import dataclasses
import itertools
import math
import pickle

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
    fit_ml,
    gradient,
    hessian,
    make_model,
    replication_rng,
    rmsea_from_f,
    sigma_of_theta,
    wishart_sample,
)
from fungible import FitResult, discrepancy
from fungible.discrepancy import (
    FocalPlane,
    _analyzed,
    _f_stack,
    _grad_from_implied,
    _log_det,
    evaluate_stack,
)
from fungible.model import implied_stack, plane_polynomial
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


def _stack_f(model, thetas, s):
    """F at every row of a ``(k, q)`` stack against s: the kernel call that
    ``FitResult.objectives`` makes, NaN at faulted rows."""
    s, ld_s = _analyzed(model, s)
    return evaluate_stack(model, np.asarray(thetas, dtype=float), s, ld_s)[1]


def _assert_matches_scalar(model, thetas, s):
    got = _stack_f(model, thetas, s)
    want = np.array([_f_ml_or_nan(model, theta, s) for theta in thetas])
    # each row of the stack is the one-row evaluation, bit for bit
    np.testing.assert_array_equal(got, want)
    ok = ~np.isnan(want)
    reference = [reference_f_ml(model, theta, s) for theta in thetas[ok]]
    np.testing.assert_allclose(got[ok], reference, rtol=1e-10, atol=0.0)
    return want


class TestFmlStack:
    """F over a stack of parameter vectors: the kernel, and
    ``FitResult.objectives`` in front of it."""

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
        want = _assert_matches_scalar(cond.model, theta[None, :], res.s)
        np.testing.assert_array_equal(res.objectives(theta[None, :]), want)

    def test_nonpositive_trace_is_a_fault(self, focal, monkeypatch):
        # A point at the kernel's domain edge along ray 10 of 90 on one
        # replication of Sigma1 at N=50, epsilon .09 (gamma1, gamma2), found
        # by 80 bisection steps on the finiteness of objectives when F was
        # clamped at 0 whatever its trace: Sigma passes its Cholesky test
        # (smallest eigenvalue about -2e-16), but the LU solve gives
        # tr(Sigma^-1 s) near -1.5e16.  F read 0 there, the global minimum,
        # where the focal plane reads 7.7e15.
        cond = condition_at("Sigma1", 0.09)
        s = wishart_sample(cond.sigma_pop, 50, replication_rng(5, "Sigma1", 50, 0.09, 0))
        res = fit_ml(cond.model, s, n=50)
        theta = np.array([float.fromhex(h) for h in (
            "0x1.0aa535702b03cp+1", "0x1.5dc7625202162p-3", "0x1.447525e6f0c2fp-3",
            "0x1.6befe8b00cd33p+0", "0x1.af24f3f9020cdp-3", "0x1.1bcfa55dba0e1p-1",
            "0x1.7af39e6ddf0d7p-1", "-0x1.8fa33c48bd851p+1", "0x1.6fd9abb5b8cf6p-1",
            "0x1.cc8ea50a8694ep-1", "-0x1.1bc0d81cb3dfbp+0", "0x1.3351e78abaf8dp+0",
            "0x1.704b79d764625p+0", "0x1.5920cf310943bp-4",
        )])
        assert np.isnan(res.objectives(theta[None])).all()
        with pytest.raises(NotPositiveDefinite) as err:
            f_ml(cond.model, theta, res.s)
        assert err.value.which == "sigma_theta"

        # the bisection points toward the kernel's domain edge on all 90
        # rays, and the point above: neither evaluator gives a finite F at
        # a row whose trace is not positive
        angles = 2.0 * math.pi * np.arange(90) / 90
        units = np.column_stack([np.cos(angles), np.sin(angles)])
        lo, hi, radii = np.zeros(90), np.full(90, 2.0), []
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            ok = np.isfinite(res.objectives(_on_plane(res, focal, mid[:, None] * units)))
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            radii.append(mid)
        offsets = np.vstack([(r[:, None] * units) for r in radii]
                            + [theta[list(focal)] - res.theta_hat[list(focal)]])
        thetas = np.vstack([_on_plane(res, focal, offsets[:-1]), theta])
        traces = []
        solve = discrepancy._lu_solve

        def recording_solve(a, b):
            out = solve(a, b)
            traces.append(out.trace(axis1=1, axis2=2))
            return out

        evaluate = res.focal_objectives(focal)
        monkeypatch.setattr(discrepancy, "_lu_solve", recording_solve)
        f_kernel = res.objectives(thetas)
        # J is one row (x6): the plane's solve is N / K, with no LAPACK call
        assert len(traces) == 1
        with np.errstate(all="ignore"):
            k_mat, n_mat = evaluate._blocks(offsets, evaluate._coef)
            traces.append((n_mat / k_mat)[:, 0, 0])
        for f, trace in zip((f_kernel, evaluate(offsets)), traces):
            assert len(trace) == len(f)  # every row is solved
            assert np.isnan(f[~(trace > 0.0)]).all()
            assert np.isfinite(f).any()
        assert not traces[0][-1] > 0.0  # the kernel's trace at the point above

    def test_both_evaluators_fault_the_same_rows(self, conditions, focal):
        # one solve and fault rule: the kernel and the focal plane solve
        # every row, and give NaN where Sigma is not positive definite
        cond = conditions["Sigma1"]
        model = cond.model
        broken = cond.theta_star.copy()
        broken[model.variance_param_mask] = -1.0
        assert np.isnan(_stack_f(model, np.tile(broken, (3, 1)), cond.sigma_pop)).all()
        mixed = np.array([cond.theta_star, broken, 1.1 * cond.theta_star, broken])
        want = [False, True, False, True]
        assert list(np.isnan(_stack_f(model, mixed, cond.sigma_pop))) == want
        s, ld_s = _analyzed(model, cond.sigma_pop)
        names = model.theta_names
        for pair in (focal, (names.index("phi"), names.index("lam1"))):
            # each row as the theta-hat of its own plane, evaluated there;
            # phi and lam1 reach every row, so R is empty
            got = [FocalPlane(model, theta, pair, s, ld_s)(np.zeros((1, 2)))[0] for theta in mixed]
            assert list(np.isnan(got)) == want

    def test_shape_and_finiteness_checked(self):
        # a non-positive-definite s is the covariance rule's case
        # (TestCovarianceRule): fit_ml rejects it before a result exists
        res = fit_ml(diag_model(2), np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            res.objectives(np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            res.objectives(np.array([[1.0, np.inf]]))
        assert res.objectives(np.empty((0, 2))).shape == (0,)


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


def _lapack_stack(p, rng):
    """Twelve symmetric p x p matrices: positive definite, except rows 1, 5
    and 9, which are not (negative definite, or with a negative first
    diagonal entry) and rows 3 and 7, which are singular (last row and
    column zero)."""
    b = rng.standard_normal((12, p, p + 2))
    mats = b @ b.swapaxes(1, 2) / (p + 2)
    mats[1] *= -1.0
    mats[5, 0, 0] = -1.0
    mats[9] *= -0.5
    mats[[3, 7], -1] = mats[[3, 7], :, -1] = 0.0
    return mats


class TestLapack:
    """The kernel calls numpy.linalg's LAPACK gufuncs without numpy.linalg's
    wrappers (private numpy API, see ``fungible.model``): on every matrix
    that numpy.linalg factors they give its bits, and a matrix that
    numpy.linalg rejects comes back all NaN.  That no warning escapes the
    kernel's errstate is checked by every test that evaluates failing rows,
    since pytest turns warnings into errors."""

    @pytest.mark.parametrize("p", [1, 6, 9])
    @pytest.mark.parametrize("name", ["cholesky", "solve", "inv"])
    def test_matches_numpy_linalg(self, p, name):
        rng = np.random.default_rng(p)
        mats = _lapack_stack(p, rng)
        args = (rng.standard_normal((p, p)),) if name == "solve" else ()
        handle = {"cholesky": discrepancy._cholesky, "solve": discrepancy._lu_solve,
                  "inv": discrepancy._inv}[name]
        reference = getattr(np.linalg, name)
        with np.errstate(all="ignore"):
            got = handle(mats, *args)
        good, failed = [], []
        for row, mat in enumerate(mats):
            try:
                want = reference(mat, *args)
            except np.linalg.LinAlgError:
                assert np.isnan(got[row]).all()
                failed.append(row)
                continue
            _assert_same_bytes(got[row], want)
            good.append(row)
        # a stack of the good rows is what numpy.linalg itself factors (with
        # solve's right-hand side as a stack too, which numpy 1.x would
        # otherwise read as a stack of vectors)
        stacked = [np.broadcast_to(arg, mats[good].shape) for arg in args]
        _assert_same_bytes(got[good], reference(mats[good], *stacked))
        assert failed == ([1, 3, 5, 7, 9] if name == "cholesky" else [3, 7])


def _lapack_f(m, n, ld_const, tr_const):
    """:func:`_f_stack`'s body for d >= 2, with LAPACK's Cholesky factor and
    solve, at any d."""
    trace = discrepancy._lu_solve(m, n).trace(axis1=1, axis2=2)
    trace[trace <= 0.0] = np.nan
    return np.maximum(0.0, _log_det(discrepancy._cholesky(m)) + ld_const + trace + tr_const)


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300]),
    st.floats(-10.0, 10.0),
)


def _assert_same_values(got, want):
    """The same NaN rows and the same bits elsewhere (a NaN's sign bit is
    not a value: sqrt gives -NaN where LAPACK's failure fill is +NaN)."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    _assert_same_bytes(got[~nan], want[~nan])


class TestOneByOneBody:
    """Where M is 1 x 1, :func:`_f_stack` takes sqrt(M) and N / M in place of
    LAPACK's Cholesky factor and solve: the same NaN rows and the same
    bits as the LAPACK body, row by row."""

    @settings(deadline=None, max_examples=200)
    @given(
        entries=st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=1, max_size=40),
        consts=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    )
    def test_matches_the_lapack_body(self, entries, consts):
        m, n = np.array(entries, dtype=float).T.reshape(2, -1, 1, 1)
        with np.errstate(all="ignore"):
            got = _f_stack(m, n, *consts)
            want = _lapack_f(m, n, *consts)
            # against one N, as the kernel calls it
            one = _f_stack(m, n[0], *consts)
            want_one = _lapack_f(m, n[0], *consts)
        _assert_same_values(got, want)
        _assert_same_values(one, want_one)

    def test_edge_rows(self):
        # K <= 0, K = 0, NaN and +-inf entries, and N / K <= 0, each NaN
        # where the LAPACK body is; the positive rows finite
        k_vals = [2.0, 0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 2.0, 2.0, 2.0, 1e-300, 3.0]
        n_vals = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 0.0, np.nan, 1.0, np.inf]
        m = np.array(k_vals)[:, None, None]
        n = np.array(n_vals)[:, None, None]
        with np.errstate(all="ignore"):
            got, want = _f_stack(m, n, 0.5, -1.0), _lapack_f(m, n, 0.5, -1.0)
        _assert_same_values(got, want)
        assert list(np.isfinite(got)) == [True] + [False] * 9 + [True, False]

    def test_row_independent_of_its_stack(self):
        rng = np.random.default_rng(24)
        k = 1000
        m = rng.standard_normal(k) * rng.choice([1e-8, 1.0, 1e8], k)
        n = rng.standard_normal(k) * rng.choice([1e-8, 1.0, 1e8], k)
        m[::17], n[::23] = 0.0, np.nan
        m, n = m[:, None, None], n[:, None, None]
        with np.errstate(all="ignore"):
            full = _f_stack(m, n, 0.3, -2.0)
            _assert_same_values(full, _lapack_f(m, n, 0.3, -2.0))
            for size in (1, 2, 3, 7, 64):
                for start in range(0, k - size, 89):
                    rows = slice(start, start + size)
                    _assert_same_bytes(_f_stack(m[rows], n[rows], 0.3, -2.0), full[rows])
            order = rng.permutation(k)
            _assert_same_bytes(_f_stack(m[order], n[order], 0.3, -2.0), full[order])


class TestGradientBytes:
    """The gradient's one bincount adds each parameter's terms in free-entry
    order, from 0.0, as ``np.add.at`` does: same sums, same signed zeros."""

    def _assert_matches_add_at(self, model, thetas, s):
        ok, f, implied = evaluate_stack(model, thetas, *_analyzed(model, s))
        assert ok.all() and not np.isnan(f).any()
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
    byte for byte: the ok mask, F and the implied matrices, which are NaN
    where ok is false."""

    def _assert_rows_match(self, model, thetas, s):
        s, ld_s = _analyzed(model, s)
        ok, f, implied = evaluate_stack(model, thetas, s, ld_s)
        assert ok.shape == f.shape == (len(thetas),)
        assert all(len(mat) == len(thetas) for mat in implied)
        for row in range(len(thetas)):
            ok_1, f_1, implied_1 = evaluate_stack(model, thetas[row:row + 1], s, ld_s)
            assert ok[row] == ok_1[0]
            _assert_same_bytes(f[row], f_1[0])
            for mat, mat_1 in zip(implied, implied_1):
                _assert_same_bytes(mat[row], mat_1[0])
        assert np.isnan(f[~ok]).all()
        assert all(np.isnan(mat[~ok]).all() for mat in implied)
        return ok, f

    @pytest.mark.parametrize("k", [1, 2, 28, 300])
    def test_single_step_model(self, conditions, k):
        cond = conditions["Sigma1"]
        rng = np.random.default_rng(k)
        thetas = _mixed_rows(cond.model, cond.theta_star, k, rng)
        ok, f = self._assert_rows_match(cond.model, thetas, cond.sigma_pop)
        assert ok.all() and np.isnan(f).sum() == len(thetas[1::3])

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
        ok, f = self._assert_rows_match(model, thetas, s)
        assert (~ok).sum() == len(thetas[3::5])
        assert (ok & np.isnan(f)).sum() >= len(thetas[1::3]) - len(thetas[3::5])


def _fit_at(model, theta, s):
    """A :class:`FitResult` with theta-hat ``theta`` against ``s``: what
    ``objectives`` and ``focal_objectives`` read from a fit."""
    q = model.q
    return FitResult(model=model, s=s, n=None, theta_hat=theta, f_hat=math.nan, grad_norm=0.0,
                     hessian_at_opt=np.zeros((q, q)), iterations=0, converged=False,
                     improper=False, f_trace=())


_PLANE_LABELS = [f"random{seed}" for seed in range(16)] + ["feedback", "shared", "canonical"]


@pytest.fixture(scope="module")
def plane_cases():
    """label -> (fit, offsets) for the focal-plane tests: random single-step
    and multi-step models, the feedback loop (some rows at a singular
    (I - A)), the model with one parameter on A and S entries, and a sample
    fit of the canonical model; offsets of growing size, the large ones
    often past the positive definite edge."""
    fits = {}
    for seed in range(16):
        model, theta, s = random_model(np.random.default_rng(seed))
        fits[f"random{seed}"] = _fit_at(model, theta, s)
    assert {fit.model.single_step for fit in fits.values()} == {True, False}
    fits["feedback"] = _fit_at(feedback_model(), np.array([0.3, 0.2, 0.8]),
                               np.array([[1.0, 0.3], [0.3, 1.0]]))
    rng = np.random.default_rng(2107)
    shared = shared_entry_model()
    a = rng.standard_normal((3, 6))
    fits["shared"] = _fit_at(shared, shared.default_start() + 0.3,
                             a @ a.T / 6 + 0.5 * np.eye(3))
    cond = condition_at("Sigma3", 0.09)
    s = wishart_sample(cond.sigma_pop, 200, replication_rng(3, "Sigma3", 200, 0.09, 0))
    fits["canonical"] = fit_ml(cond.model, s, n=200)
    scales = np.repeat([0.0, 0.05, 0.3, 1.0, 3.0], 8)
    return {label: (fit, scales[:, None] * rng.standard_normal((len(scales), 2)))
            for label, fit in fits.items()}


def _on_plane(fit, pair, offsets):
    thetas = np.repeat(fit.theta_hat[None], len(offsets), axis=0)
    thetas[:, list(pair)] += offsets
    return thetas


class TestFocalPlane:
    """``FitResult.focal_objectives``, the evaluator the contour engine
    calls, against ``FitResult.objectives`` at the same points, at every
    focal pair of each model."""

    @pytest.mark.parametrize("label", _PLANE_LABELS)
    def test_matches_objectives(self, plane_cases, label):
        # a multi-step model's plane is the kernel: the bytes of objectives
        fit, offsets = plane_cases[label]
        model = fit.model
        for pair in itertools.combinations(range(model.q), 2):
            offsets_k = offsets
            if label == "feedback" and pair == (0, 1):
                # b1 b2 = 1 on the last two rows: (I - A) is singular
                offsets_k = np.vstack([offsets, [[1.7, 0.3], [0.2, 1.8]]])
            thetas = _on_plane(fit, pair, offsets_k)
            want = fit.objectives(thetas)
            got = fit.focal_objectives(pair)(offsets_k)
            ok, _, _, sigma = implied_stack(model, thetas)
            if label == "feedback" and pair == (0, 1):
                assert np.isnan(got[-2:]).all() and not ok[-2:].any()
            if not model.single_step:
                _assert_same_bytes(got, want)
                continue
            # rows within rounding of the positive definite edge may fall
            # either way
            near = np.zeros(len(thetas), dtype=bool)
            eig = np.linalg.eigvalsh(sigma)
            near[ok] = np.abs(eig).min(axis=1) <= 1e-10 * np.abs(eig).max(axis=1)
            np.testing.assert_array_equal(np.isnan(got[~near]), np.isnan(want[~near]))
            both = ~np.isnan(want) & ~np.isnan(got)
            assert both[0]  # theta-hat itself
            np.testing.assert_allclose(got[both], want[both], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("label", _PLANE_LABELS)
    def test_rows_outside_reach_never_move(self, plane_cases, label):
        # the plane holds Sigma_RR at theta-hat, the rows R read off
        # plane_polynomial's coefficients: the kernel's Sigma_RR is the same
        # bits at every row, even far off theta-hat.  Where nothing moves
        # the plane is the kernel, and so is every plane of a model with
        # longer paths
        fit, offsets = plane_cases[label]
        model = fit.model
        rows = np.arange(model.n_observed)
        sigma_hat = sigma_of_theta(model, fit.theta_hat)
        for pair in itertools.combinations(range(model.q), 2):
            plane = fit.focal_objectives(pair)
            if not model.single_step:
                assert not plane._polynomial
                continue
            rest = np.setdiff1d(rows, plane._moved) if plane._polynomial else rows
            ok, _, _, sigma = implied_stack(model, _on_plane(fit, pair, 10.0 * offsets))
            assert ok.all()
            block = sigma[np.ix_(np.arange(len(sigma)), rest, rest)]
            assert (block == sigma_hat[np.ix_(rest, rest)]).all()

    def test_default_plane_is_one_by_one(self, popfits, focal):
        # gamma1 and gamma2 are paths into x6, which has no children: K is
        # 1 x 1, the plane that makes no LAPACK call
        for res in popfits.values():
            assert list(res.focal_objectives(focal)._moved) == [5]

    def test_shared_parameter_plane_factors_two_rows(self):
        # t and l2 move x1's and x2's diagonals and their entries with x3,
        # but not x3's own diagonal: R is x3 alone, and K is 2 x 2
        shared = shared_entry_model()
        a = np.random.default_rng(2107).standard_normal((3, 6))
        fit = _fit_at(shared, shared.default_start() + 0.3, a @ a.T / 6 + 0.5 * np.eye(3))
        pair = (shared.theta_names.index("t"), shared.theta_names.index("l2"))
        plane = fit.focal_objectives(pair)
        assert list(plane._moved) == [0, 1]
        with np.errstate(all="ignore"):
            k_mat, _ = plane._blocks(np.zeros((1, 2)), plane._coef)
        assert k_mat.shape == (1, 2, 2)

    def test_every_row_reached_matches_objectives(self, popfits):
        # where R is empty the Schur form is the plain formula, K = Sigma
        # and N = s, with Sigma from the plane's polynomial
        res = popfits["Sigma2"]
        names = res.model.theta_names
        pair = (names.index("phi"), names.index("lam1"))
        assert len(res.focal_objectives(pair)._moved) == res.model.n_observed
        offsets = 0.2 * np.random.default_rng(5).standard_normal((50, 2))
        got = res.focal_objectives(pair)(offsets)
        want = res.objectives(_on_plane(res, pair, offsets))
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_no_reached_row_matches_objectives(self):
        # f2 has no indicators: the path f2 <- f1 and f2's variance reach
        # no observed row, so F on their plane is F at theta-hat
        observed = ["x1", "x2", "x3", "x4"]
        model = make_model(
            observed, ["f1", "f2"],
            [{"row": x, "col": "f1", "param": f"l{x}"} for x in observed]
            + [{"row": "f2", "col": "f1", "param": "b"}],
            [{"row": x, "col": x, "param": f"u{x}"} for x in observed]
            + [{"row": "f1", "col": "f1", "value": 1.0}, {"row": "f2", "col": "f2", "param": "v"}],
        )
        pair = (model.theta_names.index("b"), model.theta_names.index("v"))
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 7))
        fit = _fit_at(model, model.default_start() + 0.2, a @ a.T / 7 + 0.5 * np.eye(4))
        assert model.single_step and not fit.focal_objectives(pair)._polynomial
        offsets = rng.standard_normal((20, 2))
        got = fit.focal_objectives(pair)(offsets)
        assert np.isfinite(got).all()
        _assert_same_bytes(got, fit.objectives(_on_plane(fit, pair, offsets)))

    @pytest.mark.parametrize("label", _PLANE_LABELS)
    def test_polynomial_rows_match_implied_stack(self, plane_cases, label):
        # on a single-step model Sigma on the plane is plane_polynomial's
        # polynomial in the offsets: "shared" puts one parameter on A and S
        # entries, whose coefficients add both; canonical pairs such as
        # (phi, gamma1) mix an S entry with an A entry (a nonzero
        # phi gamma1 coefficient); random models with a path between two
        # observed variables have cubic terms (path, its tail's variance,
        # path).  Only the constant term reaches the plane's rows R, so
        # Sigma_RR is that term; where the plane is the kernel, no entry
        # moves.  Other models' planes are the kernel
        # (test_matches_objectives)
        fit, offsets = plane_cases[label]
        model = fit.model
        rows = np.arange(model.n_observed)
        for pair in itertools.combinations(range(model.q), 2):
            plane = fit.focal_objectives(pair)
            if not model.single_step:
                assert not plane._polynomial
                continue
            rest = np.setdiff1d(rows, plane._moved) if plane._polynomial else rows
            monomials, coef = plane_polynomial(model, fit.theta_hat, pair)
            assert monomials[:3] == [(), (0,), (1,)]
            assert not coef[1:][:, rest][:, :, rest].any()
            terms = np.array([offsets[:, list(key)].prod(axis=1) for key in monomials])
            got = np.einsum("mk,mij->kij", terms, coef)
            want_ok, _, _, sigma = implied_stack(model, _on_plane(fit, pair, offsets))
            assert want_ok.all()
            tol = 1e-14 * np.abs(sigma).max(axis=(1, 2))[:, None, None]
            assert (np.abs(got - sigma) <= tol).all()

    @pytest.mark.parametrize("label", _PLANE_LABELS)
    def test_schur_blocks_match_the_algebra(self, plane_cases, label):
        # K and N from their polynomials (single-step models) against the
        # Schur algebra applied to implied_stack's Sigma at the same
        # offsets, per row within 1e-13 of the largest term each sums; R is
        # empty for the canonical model's (phi, lam1).  Other models'
        # planes are the kernel (test_matches_objectives)
        fit, offsets = plane_cases[label]
        model, s = fit.model, fit.s
        rows = np.arange(model.n_observed)
        for pair in itertools.combinations(range(model.q), 2):
            plane = fit.focal_objectives(pair)
            if not model.single_step:
                assert not plane._polynomial
                continue
            moved = plane._moved
            rest = np.setdiff1d(rows, moved)
            ok, _, _, sigma = implied_stack(model, _on_plane(fit, pair, offsets))
            assert ok.all()
            with np.errstate(all="ignore"):
                k_mat, n_mat = plane._blocks(offsets, plane._coef)
            sigma_rr = sigma_of_theta(model, fit.theta_hat)[np.ix_(rest, rest)]
            x = sigma[:, moved][:, :, rest]
            w = np.linalg.solve(sigma_rr, x.swapaxes(1, 2)) if len(rest) else x.swapaxes(1, 2)
            s_w = s[np.ix_(moved, rest)] @ w
            k_terms = (sigma[:, moved][:, :, moved], x @ w)
            n_terms = (s[np.ix_(moved, moved)], s_w, s_w.swapaxes(1, 2),
                       w.swapaxes(1, 2) @ s[np.ix_(rest, rest)] @ w)
            want_k = k_terms[0] - k_terms[1]
            want_n = n_terms[0] - n_terms[1] - n_terms[2] + n_terms[3]
            for got, want, terms in ((k_mat, want_k, k_terms), (n_mat, want_n, n_terms)):
                scale = np.max([np.abs(t).max(axis=(-2, -1)) * np.ones(len(x)) for t in terms], axis=0)
                assert (np.abs(got - want) <= 1e-13 * scale[:, None, None]).all()

    @pytest.mark.parametrize("label", ["random5", "random9", "feedback", "shared", "canonical"])
    def test_row_independent_of_its_stack(self, plane_cases, label):
        fit = plane_cases[label][0]
        rng = np.random.default_rng(len(label))
        offsets = rng.standard_normal((1000, 2)) * rng.choice([0.01, 0.3, 2.0], (1000, 1))
        for pair in itertools.combinations(range(fit.model.q), 2):
            evaluate = fit.focal_objectives(pair)
            full = evaluate(offsets)
            for n in (1, 2, 3, 7, 64):
                for start in range(0, 1000 - n, 97):
                    _assert_same_bytes(evaluate(offsets[start:start + n]), full[start:start + n])
            order = rng.permutation(1000)
            _assert_same_bytes(evaluate(offsets[order]), full[order])

    def test_stack_rows_match_each_fit_plane(self, plane_cases):
        # the planes of sample fits of one model, stacked along the fit
        # axis, give each row its own fit's plane bits (a NaN's sign aside),
        # at every focal pair and in any row order; planes of another focal
        # pair, or of a multi-step model (the kernel), do not stack
        cond = condition_at("Sigma2", 0.09)
        fits = [fit_ml(cond.model, wishart_sample(cond.sigma_pop, n,
                                                  replication_rng(3, "Sigma2", n, 0.09, rep)), n=n)
                for n in (50, 200, 1000) for rep in range(2)]
        rng = np.random.default_rng(13)
        offsets = rng.standard_normal((600, 2)) * rng.choice([0.01, 0.3, 2.0], (600, 1))
        which = rng.integers(0, len(fits), 600)
        for pair in itertools.combinations(range(cond.model.q), 2):
            planes = [res.focal_objectives(pair) for res in fits]
            stack = FocalPlane.stack(planes)
            assert stack is not None
            got = stack(offsets, which)
            for j, plane in enumerate(planes):
                rows = np.flatnonzero(which == j)
                _assert_same_values(got[rows], plane(offsets[rows]))
            order = rng.permutation(600)
            _assert_same_bytes(stack(offsets[order], which[order]), got[order])
        assert FocalPlane.stack([planes[0]]) is planes[0]
        assert FocalPlane.stack([planes[0], fits[1].focal_objectives((0, 1))]) is None
        multi = next(fit for fit, _ in plane_cases.values() if not fit.model.single_step)
        kernel = multi.focal_objectives((0, 1))
        assert FocalPlane.stack([kernel, kernel]) is None

    def test_built_once_per_focal_tuple(self, popfits, focal):
        res = popfits["Sigma1"]
        evaluate = res.focal_objectives(focal)
        assert res.focal_objectives(list(focal)) is evaluate
        assert res.focal_objectives(focal[::-1]) is not evaluate
        # a fit that has built evaluators still pickles, and its copy
        # evaluates the same bits
        offsets = 0.1 * np.random.default_rng(3).standard_normal((20, 2))
        copy = pickle.loads(pickle.dumps(res))
        _assert_same_bytes(copy.focal_objectives(focal)(offsets), evaluate(offsets))

    def test_shared_by_copies_at_other_n(self, popfits, focal):
        # a plane depends on the model, theta-hat and s, not on n: the
        # copies the study makes of a population fit per N share its
        # planes, whichever copy builds one first
        res = popfits["Sigma3"]
        copies = [dataclasses.replace(res, n=n) for n in (200, 1000)]
        evaluate = copies[0].focal_objectives(focal)
        assert res.focal_objectives(focal) is evaluate
        assert copies[1].focal_objectives(list(focal)) is evaluate
        # a copy that has built a plane still pickles, and its copy
        # evaluates the same bits
        offsets = 0.1 * np.random.default_rng(4).standard_normal((20, 2))
        again = pickle.loads(pickle.dumps(copies[1]))
        assert again.n == 1000
        _assert_same_bytes(again.focal_objectives(focal)(offsets), evaluate(offsets))

    def test_empty_and_all_singular_stacks(self):
        fit = _fit_at(feedback_model(), np.array([0.3, 0.2, 0.8]), np.array([[1.0, 0.3], [0.3, 1.0]]))
        evaluate = fit.focal_objectives((0, 1))
        assert evaluate(np.empty((0, 2))).shape == (0,)
        singular = np.array([[1.7, 0.3], [0.2, 1.8]])
        assert np.isnan(evaluate(singular)).all()
        # the kernel's plane of a multi-step model pickles with its fit
        offsets = np.vstack([singular, [[0.1, -0.2]]])
        copy = pickle.loads(pickle.dumps(fit))
        _assert_same_bytes(copy.focal_objectives((0, 1))(offsets), evaluate(offsets))

    def test_singular_structure_at_theta_hat(self):
        fit = _fit_at(feedback_model(), np.array([2.0, 0.5, 0.8]), np.eye(2))
        with pytest.raises(SingularStructure):
            fit.focal_objectives((0, 2))


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


# each validation branch of the RMSEA conversions with a call that takes it
# and the message it raises
_VALIDATION_CASES = {
    "rmsea_from_f negative f": (lambda: rmsea_from_f(-0.1, 8, 200), "f must be nonnegative"),
    "f_from_rmsea df 0": (lambda: f_from_rmsea(0.05, 0, 200), "df must be at least 1"),
    "f_from_rmsea n 1": (lambda: f_from_rmsea(0.05, 8, 1), "sample mode needs n >= 2"),
}


@pytest.mark.parametrize("case", list(_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = _VALIDATION_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


# df 2000 is where e^(-x/2) alone underflows; there the tail's error is the
# rounding of ln(x/2) taken j times, bounded by about 4e-16 df
_CHISQ_DFS = list(range(1, 41)) + [100, 2000]
_CHISQ_PROBS = (1e-9, 0.05, 0.5, 0.95, 0.99, 1 - 1e-9)


def _chisq_tol(df):
    return 1e-13 if df <= 300 else 4e-16 * df


class TestChisqQuantile:
    def test_closed_form_two_df(self):
        # exponential case: quantile = -2 ln(1 - p), to the last few bits
        for p in (0.5, 0.9, 0.95, 0.99):
            want = -2.0 * math.log1p(-p)
            assert abs(chisq_quantile(2, p) - want) <= 8 * math.ulp(want)

    @pytest.mark.parametrize("df", _CHISQ_DFS)
    def test_tail_matches_gammaincc(self, df):
        from scipy.special import gammaincc
        from scipy.stats import chi2

        for x in df * np.array([1e-6, 0.01, 0.3, 0.8, 1.0, 1.2, 2.0, 4.0]) + 1e-3:
            tail, density = discrepancy._chisq_tail(df, x)
            assert abs(tail - gammaincc(df / 2, x / 2)) <= _chisq_tol(df)
            assert density == pytest.approx(chi2.pdf(x, df), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("df", _CHISQ_DFS)
    def test_quantile_residual_on_grid(self, df):
        from scipy.special import gammainc

        for prob in _CHISQ_PROBS:
            x = chisq_quantile(df, prob)
            assert abs(gammainc(df / 2, x / 2) - prob) <= _chisq_tol(df)

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
