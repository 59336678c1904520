import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from fungible import (
    FitOptions,
    FitResult,
    FungibleError,
    NoConvergence,
    NotPositiveDefinite,
    condition_at,
    f_ml,
    fit_ml,
    fit_stack,
    gradient,
    make_model,
    misspecify_to_epsilon,
    population_rmsea,
    replication_rng,
    sigma_of_theta,
    wishart_sample,
)
from helpers import reference_fit_ml


class TestFitMl:
    def test_recovers_generating_parameters(self, conditions, popfits):
        for label, cond in conditions.items():
            res = popfits[label]
            assert res.converged
            assert res.f_hat < 1e-10
            assert np.abs(res.theta_hat - cond.theta_star).max() < 1e-6

    def test_population_misfit_level(self, conditions):
        mis = misspecify_to_epsilon(conditions["Sigma1"], 0.03)
        res = fit_ml(mis.model, mis.sigma_pop, n=None)
        assert np.sqrt(res.f_hat / mis.model.df) == pytest.approx(0.03, abs=1e-6)

    def test_basin_robustness(self, conditions, popfits):
        # starts perturbed by +-50% componentwise land on the same optimum
        cond = conditions["Sigma4"]
        reference = popfits["Sigma4"]
        signs = np.where(np.arange(cond.model.q) % 2 == 0, 1.5, 0.5)
        start = cond.theta_star * signs
        res = fit_ml(replace(cond.model, start=start), cond.sigma_pop, n=200)
        assert np.abs(res.theta_hat - reference.theta_hat).max() < 1e-5

    def test_objective_order_invariance(self, conditions):
        import fungible.model as M

        cond = conditions["Sigma2"]
        doc = M.model_to_dict(cond.model)
        doc["directed"] = list(reversed(doc["directed"]))
        doc["symmetric"] = list(reversed(doc["symmetric"]))
        shuffled = M.load_model(doc)
        assert shuffled.theta_names != cond.model.theta_names
        a = fit_ml(cond.model, cond.sigma_pop, n=200)
        b = fit_ml(shuffled, cond.sigma_pop, n=200)
        assert abs(a.f_hat - b.f_hat) < 1e-8

    def test_descent_per_iteration(self, popfits):
        for res in popfits.values():
            trace = np.asarray(res.f_trace)
            assert (np.diff(trace) <= 0).all()
            assert res.f_hat <= trace[0]

    def test_warm_restart_converges_immediately(self, conditions, popfits):
        cond = conditions["Sigma1"]
        warm = fit_ml(replace(cond.model, start=popfits["Sigma1"].theta_hat), cond.sigma_pop, n=200)
        assert warm.converged
        assert warm.iterations <= 2

    def test_no_convergence_raises(self, conditions):
        cond = conditions["Sigma1"]
        with pytest.raises(NoConvergence):
            fit_ml(cond.model, cond.sigma_pop, n=200, opts=FitOptions(max_iter=1))

    def test_improper_solution_flagged(self):
        # one factor, three indicators, just identified: lam1^2 solves to
        # s12 s13 / s23 = 1.28 > s11, so u1 = 1 - 1.28 < 0 at the optimum
        model = make_model(
            ["x1", "x2", "x3"],
            ["f"],
            [{"row": f"x{i}", "col": "f", "param": f"l{i}"} for i in (1, 2, 3)],
            [{"row": f"x{i}", "col": f"x{i}", "param": f"u{i}"} for i in (1, 2, 3)]
            + [{"row": "f", "col": "f", "value": 1.0}],
        )
        s = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]])
        res = fit_ml(model, s, n=100)
        assert res.converged
        assert res.improper
        u1 = res.theta_hat[model.theta_names.index("u1")]
        assert u1 == pytest.approx(1.0 - 0.8 * 0.8 / 0.5, abs=1e-4)

    def test_grad_norm_matches_convergence_flag(self, popfits):
        for res in popfits.values():
            assert res.converged == (res.grad_norm < 1e-6)

    def test_input_validation(self, conditions):
        cond = conditions["Sigma1"]
        with pytest.raises(ValueError, match="not symmetric"):
            s = np.array(cond.sigma_pop)
            s[0, 1] += 1e-6
            fit_ml(cond.model, s, n=200)
        with pytest.raises(NotPositiveDefinite):
            fit_ml(cond.model, -np.eye(6), n=200)
        with pytest.raises(ValueError, match="at least 2"):
            fit_ml(cond.model, cond.sigma_pop, n=1)
        # once read as a non-positive-definite sigma_theta or s, or as a
        # non-finite parameter vector, depending on where the value sat
        for (i, j), value in (((0, 1), np.nan), ((2, 2), np.nan), ((3, 3), np.inf)):
            s = np.array(cond.sigma_pop)
            s[i, j] = s[j, i] = value
            with pytest.raises(ValueError, match="covariance matrix must be finite"):
                fit_ml(cond.model, s, n=200)

    def test_result_metadata(self, conditions, popfits):
        res = popfits["Sigma1"]
        assert res.n == 200
        assert res.df == conditions["Sigma1"].model.df == 7
        assert res.objectives(res.theta_hat[None])[0] == pytest.approx(res.f_hat, abs=1e-14)
        assert res.hessian_at_opt.shape == (14, 14)

    @pytest.mark.parametrize("n", [50, 200])
    def test_result_belongs_to_final_point(self, conditions, n):
        # f_hat and the gradient come from the line search's matrices at the
        # accepted point; the scalar entry points recompute them from theta_hat
        for label, cond in conditions.items():
            s = wishart_sample(cond.sigma_pop, n, replication_rng(3, label, n, 0.0, 0))
            res = fit_ml(cond.model, s, n=n)
            assert res.converged
            assert res.f_hat == f_ml(cond.model, res.theta_hat, res.s)
            assert res.grad_norm == np.abs(gradient(cond.model, res.theta_hat, res.s)).max()

    def test_pinned_sample_fit(self, conditions):
        cond = conditions["Sigma1"]
        s = wishart_sample(cond.sigma_pop, 50, replication_rng(3, "Sigma1", 50, 0.0, 0))
        res = fit_ml(cond.model, s, n=50)
        assert res.iterations == 25
        assert res.f_hat == float.fromhex("0x1.52a70faefd280p-4")

    def test_pinned_fit_digest(self, conditions):
        # theta_hat, f_hat, iterations and hessian_at_opt of the Sigma1-4 x
        # N 50/200 sample fits, bit for bit, as one digest
        digest = hashlib.sha256()
        for label, cond in conditions.items():
            for n in (50, 200):
                s = wishart_sample(cond.sigma_pop, n, replication_rng(3, label, n, 0.0, 0))
                res = fit_ml(cond.model, s, n=n)
                digest.update(np.asarray(res.theta_hat, dtype="<f8").tobytes())
                digest.update(float(res.f_hat).hex().encode())
                digest.update(str(res.iterations).encode())
                digest.update(np.asarray(res.hessian_at_opt, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "8666b501a007b60c62d41e41fb1a4b098eaed896ed122ae40ec711de85811f29"
        )


class TestPopulationRmsea:
    def test_zero_for_exact_covariance(self, conditions):
        cond = conditions["Sigma1"]
        assert population_rmsea(cond.model, cond.sigma_pop) < 1e-6

    def test_monotone_in_epsilon(self, conditions):
        cond = conditions["Sigma3"]
        values = []
        for eps in (0.0, 0.03, 0.09):
            mis = misspecify_to_epsilon(cond, eps) if eps else cond
            values.append(population_rmsea(mis.model, mis.sigma_pop))
        assert values[0] < values[1] < values[2]


class TestFitOptions:
    @pytest.mark.parametrize("kwargs, message", [
        ({"grad_tol": float("inf")}, "grad_tol must be a finite real number above 0, got inf"),
        ({"grad_tol": float("nan")}, "grad_tol must be a finite real number above 0, got nan"),
        ({"grad_tol": True}, "grad_tol must be a finite real number above 0, got True"),
        ({"grad_tol": "1e-6"}, "grad_tol must be a finite real number above 0, got '1e-6'"),
        ({"grad_tol": 0.0}, "grad_tol must be a finite real number above 0, got 0.0"),
        ({"grad_tol": -3}, "grad_tol must be a finite real number above 0, got -3"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"max_iter": -3}, "max_iter must be at least 1, got -3"),
    ])
    def test_rejects(self, kwargs, message):
        # an infinite grad_tol once returned the start as a converged fit
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FitOptions(**kwargs)

    def test_accepts_smallest_budget_and_integer_tolerance(self):
        assert FitOptions(max_iter=1, grad_tol=1) == FitOptions(1, 1)


# a factor of fixed variance -50 over three indicators: at a small S the
# default start leaves the domain, and its fits converge, stall or run out
# of iterations; the last row fits S that lies 1e-9 (relative) inside the
# domain exactly, so a Hessian point leaves it
NEGATIVE_FACTOR = make_model(
    ["x1", "x2", "x3"],
    ["f"],
    [{"row": f"x{i}", "col": "f", "param": f"l{i}"} for i in (1, 2, 3)],
    [{"row": "f", "col": "f", "value": -50.0}]
    + [{"row": f"x{i}", "col": f"x{i}", "param": f"u{i}"} for i in (1, 2, 3)],
)


def _negative_factor_rows():
    rng = np.random.default_rng(0)
    rows = []
    for scale in [1.0] * 3 + [10.0] * 15:
        a = rng.standard_normal((3, 3))
        rows.append(scale * (a @ a.T + 0.05 * np.eye(3)))
    rows.insert(5, -np.eye(3))  # fails as_cov
    rows.append(sigma_of_theta(NEGATIVE_FACTOR, np.r_[np.full(3, 0.2), np.full(3, 6.0 + 6e-9)]))
    return rows


def _kind(model, s, result):
    if isinstance(result, NotPositiveDefinite):
        if result.which == "s":
            return "as_cov"
        try:
            f_ml(model, model.default_start(s), s)
        except NotPositiveDefinite:
            return "start"
        return "hessian"
    if isinstance(result, NoConvergence):
        return "no_convergence"
    return "converged" if result.converged else "stalled"


def _outcome(result):
    """Every field the driver must reproduce, as bytes, or the error's type
    and message."""
    if isinstance(result, FungibleError):
        return type(result), str(result)
    assert isinstance(result, FitResult)
    return (
        result.theta_hat.tobytes(), float(result.f_hat).hex(), float(result.grad_norm).hex(),
        result.hessian_at_opt.tobytes(), result.iterations, result.converged, result.improper,
        tuple(float(f).hex() for f in result.f_trace), result.s.tobytes(), result.n,
    )


class TestFitStack:
    """Every row of a lockstep chunk is its own one-row fit, bit for bit."""

    def _check(self, model, rows, n, opts):
        want = []
        for s in rows:
            try:
                want.append(reference_fit_ml(model, s, n, opts))
            except FungibleError as exc:
                want.append(exc)
        for size in (1, 7, 20):
            got = []
            for start in range(0, len(rows), size):
                got += fit_stack(model, rows[start:start + size], n, opts)
            assert [_outcome(g) for g in got] == [_outcome(w) for w in want], size
        return {_kind(model, s, w) for s, w in zip(rows, want)}

    def test_sample_chunk(self):
        # Sigma4 at eps .03 and N 1000 stalls at replications 2 and 15; at
        # 22 iterations some rows converge, some stall and the rest run out
        cond = condition_at("Sigma4", 0.03)
        rows = [wishart_sample(cond.sigma_pop, 1000, replication_rng(3, "Sigma4", 1000, 0.03, rep))
                for rep in range(19)]
        rows.insert(9, -np.eye(6))
        kinds = self._check(cond.model, rows, 1000, None)
        assert kinds == {"converged", "stalled", "as_cov"}
        kinds = self._check(cond.model, rows, 1000, FitOptions(max_iter=22))
        assert kinds == {"converged", "stalled", "no_convergence", "as_cov"}

    def test_failing_rows(self):
        rows = _negative_factor_rows()
        kinds = self._check(NEGATIVE_FACTOR, rows, None, FitOptions(max_iter=100))
        assert kinds == {"as_cov", "start", "converged", "stalled", "no_convergence", "hessian"}

    def test_fit_ml_is_the_one_row_view(self):
        for s in _negative_factor_rows():
            (want,) = fit_stack(NEGATIVE_FACTOR, [s], None, FitOptions(max_iter=100))
            try:
                got = fit_ml(NEGATIVE_FACTOR, s, opts=FitOptions(max_iter=100))
            except FungibleError as exc:
                got = exc
            assert _outcome(got) == _outcome(want)

    def test_arguments(self, conditions):
        cond = conditions["Sigma1"]
        assert fit_stack(cond.model, []) == []
        with pytest.raises(ValueError, match="at least 2"):
            fit_stack(cond.model, [cond.sigma_pop], n=1)
        s = np.array(cond.sigma_pop)
        s[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            fit_stack(cond.model, [cond.sigma_pop, s], n=200)
