import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungible import (
    CONFIDENCE,
    FIXED,
    AxisWidths,
    ContourTarget,
    ModelSpec,
    NoConvergence,
    NotPositiveDefinite,
    PopulationCondition,
    RootAboveTolerance,
    SingularStructure,
    StudyDesign,
    TargetUnreachable,
    axis_widths_exact,
    canonical_model,
    chisq_quantile,
    condition_at,
    condition_from_label,
    f_from_rmsea,
    f_ml,
    f_target,
    fit_ml,
    gradient,
    hessian,
    load_model,
    make_model,
    misspecify_to_epsilon,
    model_to_dict,
    population_rmsea,
    replication_rng,
    rmsea_from_f,
    run_cell,
    run_design,
    save_model,
    sigma_of_theta,
    wishart_sample,
)
from fungible.discrepancy import evaluate_stack
from fungible.model import (STRUCTURAL_EFFECT_LEVELS, UNIQUE_VARIANCE_LEVELS, as_cov,
                            implied_stack)
from helpers import (
    diag_model,
    feedback_model,
    random_model,
    reference_implied,
    shared_entry_model,
    two_var_path,
)


class TestSigmaOfTheta:
    def test_identity_case(self):
        model = diag_model(2)
        sigma = sigma_of_theta(model, [1.0, 1.0])
        np.testing.assert_allclose(sigma, np.eye(2), atol=1e-15)

    def test_two_variable_path_hand_expansion(self):
        # one path x -> y with b = 0.5, unit exogenous variance, unique
        # variance 0.75; expanding (I-A)^-1 S (I-A)^-T by hand gives an
        # equicorrelation matrix with off-diagonal 0.5
        model = two_var_path()
        sigma = sigma_of_theta(model, [0.5, 0.75])
        np.testing.assert_allclose(sigma, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_unit_gain_self_loop_is_singular(self):
        model = make_model(
            ["a", "b"],
            [],
            [{"row": "a", "col": "a", "param": "loop"}],
            [
                {"row": "a", "col": "a", "param": "v1"},
                {"row": "b", "col": "b", "param": "v2"},
            ],
        )
        with pytest.raises(SingularStructure):
            sigma_of_theta(model, [1.0, 1.0, 1.0])

    def test_output_exactly_symmetric(self):
        cond = condition_from_label("Sigma3")
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = cond.theta_star * rng.uniform(0.8, 1.2, cond.model.q)
            sigma = sigma_of_theta(cond.model, theta)
            assert (sigma == sigma.T).all()

    def test_theta_validation(self):
        model = diag_model(2)
        with pytest.raises(ValueError):
            sigma_of_theta(model, [1.0])
        with pytest.raises(ValueError):
            sigma_of_theta(model, [1.0, np.inf])


class TestImpliedStack:
    @settings(deadline=None, max_examples=40)
    @given(
        label=st.sampled_from(["Sigma1", "Sigma2", "Sigma3", "Sigma4"]),
        eps=st.sampled_from([0.0, 0.03, 0.09]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_builtin_conditions_match_solve_bytes(self, label, eps, seed):
        # single-step: I + A is what the LU solve of (I - A) returns,
        # signed zeros included, at parameter scales from 1e-2 to 1e3
        cond = condition_at(label, eps)
        rng = np.random.default_rng(seed)
        shape = (32, cond.model.q)
        thetas = (cond.theta_star * 10.0 ** rng.uniform(-2.0, 3.0, shape)
                  * rng.choice([-1.0, 1.0], shape))
        got = implied_stack(cond.model, thetas)
        want = reference_implied(cond.model, thetas)
        assert want[0].all()
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_single_step(self, conditions):
        for cond in conditions.values():
            assert cond.model.single_step
        assert diag_model(3).single_step
        assert two_var_path().single_step
        # latent -> latent -> observed, the first path a fixed nonzero entry
        chain = make_model(
            ["x1", "x2", "x3"],
            ["f1", "f2"],
            [{"row": "f2", "col": "f1", "value": 0.5}]
            + [{"row": x, "col": "f2", "param": f"l{x}"} for x in ("x1", "x2", "x3")],
            [{"row": x, "col": x, "param": f"u{x}"} for x in ("x1", "x2", "x3")]
            + [{"row": "f1", "col": "f1", "value": 1.0}, {"row": "f2", "col": "f2", "value": 0.5}],
        )
        assert not chain.single_step
        assert not feedback_model().single_step
        self_loop = make_model(
            ["a", "b"],
            [],
            [{"row": "a", "col": "a", "param": "loop"}],
            [{"row": "a", "col": "a", "param": "v1"}, {"row": "b", "col": "b", "param": "v2"}],
        )
        assert not self_loop.single_step

    def test_random_models_match_solve(self):
        # multi-step patterns keep the parent's solve, byte for byte; on
        # single-step patterns G is exactly I + A, which the LU solve only
        # approximates where it pivots (a parent ordered before its child
        # with a path coefficient above 1)
        rng = np.random.default_rng(606)
        kinds = set()
        for _ in range(200):
            model, theta, s = random_model(rng)
            kinds.add(model.single_step)
            thetas = theta * 10.0 ** rng.uniform(-1.0, 1.0, (8, model.q))
            ok, g, c, sigma = implied_stack(model, thetas)
            ok_ref, g_ref, c_ref, sigma_ref = reference_implied(model, thetas)
            assert ok.all() and ok_ref.all()
            if model.single_step:
                a, _ = model._assemble(thetas)
                assert np.array_equal(g, np.eye(model.m) + a)
                for got, want in ((g, g_ref), (c, c_ref), (sigma, sigma_ref)):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            else:
                for got, want in ((g, g_ref), (c, c_ref), (sigma, sigma_ref)):
                    assert got.tobytes() == want.tobytes()
            assert evaluate_stack(model, thetas, s, np.linalg.slogdet(s)[1])[0].all()
        assert kinds == {True, False}

    def test_feedback_model_keeps_singularity_test(self):
        model = feedback_model()
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        thetas = np.array([[0.3, 0.2, 1.0], [2.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
        ok, f, implied = evaluate_stack(model, thetas, s, np.linalg.slogdet(s)[1])
        assert list(ok) == [True, False, False]
        # every stack keeps all three rows, NaN at the singular ones
        assert np.isfinite(f[0]) and np.isnan(f[1:]).all()
        for mat in implied:
            assert len(mat) == 3 and np.isfinite(mat[0]).all() and np.isnan(mat[1:]).all()
        with pytest.raises(SingularStructure):
            f_ml(model, thetas[1], s)


class TestModelSpecValidation:
    def test_asymmetric_pattern_rejected(self):
        s_param = np.array([[0, 1], [FIXED, FIXED]])
        with pytest.raises(ValueError, match="not symmetric"):
            ModelSpec(
                observed=("a", "b"),
                latent=(),
                directed_fixed=np.zeros((2, 2)),
                directed_param=np.full((2, 2), FIXED),
                symmetric_fixed=np.zeros((2, 2)),
                symmetric_param=s_param,
                theta_names=("v", "c"),
            )

    def test_unused_parameter_index_rejected(self):
        s_param = np.array([[0, FIXED], [FIXED, 2]])
        with pytest.raises(ValueError, match="cover 0..q-1"):
            ModelSpec(
                observed=("a", "b"),
                latent=(),
                directed_fixed=np.zeros((2, 2)),
                directed_param=np.full((2, 2), FIXED),
                symmetric_fixed=np.zeros((2, 2)),
                symmetric_param=s_param,
                theta_names=("v1", "v2", "v3"),
            )

    def test_negative_df_rejected(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            make_model(
                ["z"],
                [],
                [{"row": "z", "col": "z", "param": "b"}],
                [{"row": "z", "col": "z", "param": "v"}],
            )

    def test_singular_start_rejected(self):
        # x <-> y feedback loop started at b1 * b2 = 1
        with pytest.raises(ValueError, match="singular at the model's default start"):
            make_model(
                ["x", "y"],
                [],
                [{"row": "y", "col": "x", "param": "b1"}, {"row": "x", "col": "y", "param": "b2"}],
                [{"row": "x", "col": "x", "value": 1.0}, {"row": "y", "col": "y", "value": 1.0}],
                start_values=[{"param": "b1", "value": 2.0}, {"param": "b2", "value": 0.5}],
            )

    def test_duplicate_directed_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_model(
                ["x", "y"],
                [],
                [
                    {"row": "y", "col": "x", "param": "b1"},
                    {"row": "y", "col": "x", "param": "b2"},
                ],
                [
                    {"row": "x", "col": "x", "param": "v1"},
                    {"row": "y", "col": "y", "param": "v2"},
                ],
            )

    @pytest.mark.parametrize(
        "kind, row, col, value",
        [
            # NaN once read as "conflicting symmetric entry at (6, 6)"
            ("symmetric", "f1", "f1", math.nan),
            # inf once read as "(I - A) is singular at the model's default start"
            ("directed", "x1", "f1", math.inf),
            ("symmetric", "x1", "x4", -math.inf),
        ],
    )
    def test_non_finite_fixed_value_rejected(self, kind, row, col, value):
        doc = model_to_dict(canonical_model())
        doc[kind] = [e for e in doc[kind] if (e["row"], e["col"]) != (row, col)]
        doc[kind].append({"row": row, "col": col, "value": value})
        with pytest.raises(ValueError, match=rf"fixed value at \({row}, {col}\) must be finite"):
            load_model(doc)

    @pytest.mark.parametrize("label", ["directed_fixed", "symmetric_fixed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fixed_array_rejected(self, label, value):
        model = canonical_model()
        fields = {name: getattr(model, name) for name in (
            "observed", "latent", "directed_fixed", "directed_param", "symmetric_fixed",
            "symmetric_param", "theta_names")}
        fixed = fields[label].copy()
        fixed[6, 6] = value  # f1's own entry: A's diagonal, S's variance
        fields[label] = fixed
        with pytest.raises(ValueError, match=f"{label} must be finite"):
            ModelSpec(**fields)


def _canonical_spec(**changes):
    """The canonical model's ModelSpec with some fields replaced."""
    model = canonical_model()
    names = ("observed", "latent", "directed_fixed", "directed_param", "symmetric_fixed",
             "symmetric_param", "theta_names")
    return ModelSpec(**{**{name: getattr(model, name) for name in names}, **changes})


def _asymmetric_fixed():
    fixed = canonical_model().symmetric_fixed.copy()
    fixed[0, 1] = 0.3  # x1 with x2, and not x2 with x1
    return fixed


def _df_zero_condition():
    # x -> y with both variances free: q = 3 = p(p + 1)/2
    return PopulationCondition("df0", two_var_path(fixed_exogenous=False), [0.5, 1.0, 0.75],
                               [[1.0, 0.5], [0.5, 1.0]], misfit_pair=(0, 1))


# make_model arguments for x -> y with free variances, and entry lists
_VARS = (["x", "y"], [])
_PATH = [{"row": "y", "col": "x", "param": "b"}]
_VARIANCES = [{"row": v, "col": v, "param": f"v{v}"} for v in ("x", "y")]

# each validation branch of the module with a call that takes it and the
# message it raises
_VALIDATION_CASES = {
    "spec duplicate names": (lambda: _canonical_spec(observed=("x1",) * 6),
                             "variable names must be unique"),
    "spec wrong shape": (lambda: _canonical_spec(directed_fixed=np.zeros((7, 7))),
                         r"directed_fixed must have shape \(8, 8\)"),
    "spec asymmetric fixed values": (lambda: _canonical_spec(symmetric_fixed=_asymmetric_fixed()),
                                     "symmetric pattern values are not symmetric"),
    "spec no free parameters": (lambda: _canonical_spec(
        directed_param=np.full((8, 8), FIXED), symmetric_param=np.full((8, 8), FIXED),
        symmetric_fixed=np.eye(8), theta_names=()), "model has no free parameters"),
    "index out of range": (lambda: make_model(*_VARS, [{"row": 5, "col": "x", "param": "b"}],
                                              _VARIANCES), "variable index 5 out of range"),
    "unknown variable": (lambda: make_model(*_VARS, [{"row": "z", "col": "x", "param": "b"}],
                                            _VARIANCES), "unknown variable 'z'"),
    "directed entry without param or value": (
        lambda: make_model(*_VARS, [{"row": "y", "col": "x"}], _VARIANCES),
        "directed entry needs 'param' or 'value'"),
    "symmetric entry without param or value": (
        lambda: make_model(*_VARS, _PATH, _VARIANCES + [{"row": "x", "col": "y"}]),
        "symmetric entry needs 'param' or 'value'"),
    "conflicting symmetric value": (lambda: make_model(*_VARS, _PATH, _VARIANCES + [
        {"row": "x", "col": "y", "value": 0.3}, {"row": "y", "col": "x", "value": 0.4}]),
        r"conflicting symmetric entry at \(1, 0\)"),
    "start value without value": (lambda: make_model(*_VARS, _PATH, _VARIANCES, [{"param": "b"}]),
                                  "needs 'param' and 'value'"),
    "start value of unknown parameter": (
        lambda: make_model(*_VARS, _PATH, _VARIANCES, [{"param": "c", "value": 1.0}]),
        "start value for unknown parameter 'c'"),
    "model key not a list": (lambda: load_model({"observed": "xy", "latent": []}),
                             "the model key 'observed' must be a list, got str"),
    "model entries not objects": (
        lambda: load_model({"observed": ["x"], "latent": [], "directed": [1]}),
        "every entry of the model key 'directed' must be a JSON object"),
    "negative epsilon_pop": (lambda: dataclasses.replace(_df_zero_condition(), epsilon_pop=-0.1),
                             "epsilon_pop must be finite and nonnegative"),
    "nan epsilon_pop": (lambda: dataclasses.replace(_df_zero_condition(), epsilon_pop=math.nan),
                        "epsilon_pop must be finite and nonnegative"),
    "misfit_pair not distinct": (lambda: dataclasses.replace(_df_zero_condition(), misfit_pair=(1, 1)),
                                 "misfit_pair must be two distinct observed indices"),
    "misfit_pair an integer": (lambda: dataclasses.replace(_df_zero_condition(), misfit_pair=5),
                               "misfit_pair must be two observed indices, got 5"),
    "misfit_pair of three": (lambda: dataclasses.replace(_df_zero_condition(), misfit_pair=(0, 1, 2)),
                             r"misfit_pair must be two observed indices, got \(0, 1, 2\)"),
    "string epsilon_pop": (lambda: dataclasses.replace(_df_zero_condition(), epsilon_pop="0.1"),
                           "epsilon_pop must be finite and nonnegative, got '0.1'"),
    "bool epsilon_pop": (lambda: dataclasses.replace(_df_zero_condition(), epsilon_pop=True),
                         "epsilon_pop must be finite and nonnegative, got True"),
    "string epsilon_target": (lambda: misspecify_to_epsilon(_df_zero_condition(), "0.03"),
                              "epsilon_target must be finite and nonnegative, got '0.03'"),
    "bool epsilon_target": (lambda: misspecify_to_epsilon(_df_zero_condition(), True),
                            "epsilon_target must be finite and nonnegative, got True"),
    # at target 0, where no fit would reach rmsea_from_f's own df check
    "misspecify at df 0": (lambda: misspecify_to_epsilon(_df_zero_condition(), 0.0),
                           "df must be at least 1"),
}


@pytest.mark.parametrize("case", list(_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = _VALIDATION_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestModelJson:
    def test_dict_round_trip(self):
        model = canonical_model()
        clone = load_model(model_to_dict(model))
        assert clone.theta_names == model.theta_names
        np.testing.assert_array_equal(clone.directed_param, model.directed_param)
        np.testing.assert_array_equal(clone.symmetric_param, model.symmetric_param)
        np.testing.assert_array_equal(clone.symmetric_fixed, model.symmetric_fixed)

    def test_file_round_trip(self, tmp_path):
        model = canonical_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.observed == model.observed
        assert clone.latent == model.latent
        np.testing.assert_array_equal(clone.directed_param, model.directed_param)

    def test_integer_indices_accepted(self):
        model = make_model(
            ["x", "y"],
            [],
            [{"row": 1, "col": 0, "param": "b"}],
            [{"row": 0, "col": 0, "value": 1.0}, {"row": 1, "col": 1, "param": "u"}],
        )
        sigma = sigma_of_theta(model, [0.5, 0.75])
        np.testing.assert_allclose(sigma, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_start_values_apply(self):
        doc = model_to_dict(two_var_path())
        doc["start_values"] = [{"param": "b", "value": 0.3}]
        model = load_model(doc)
        assert model.start is not None
        assert model.start[model.theta_names.index("b")] == 0.3


# the free-entry readers at the commit before they shared one entry table:
# default_start() and default_start(s) at s = diag(1.5, 2.0, ...), the
# variance mask, the gradient's index arrays (parameter, flat position and
# factor per free entry) as (dtype, values), and the free directed/symmetric
# entries of model_to_dict as (row, col, param)
FREE_ENTRY_PINS = {
    "canonical": (
        [0.1] * 7 + [0.5] * 6 + [0.0],
        [0.1] * 7 + [0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 0.0],
        [False] * 7 + [True] * 6 + [False],
        [
            ("<i8", list(range(14))),
            ("<i8", [48, 49, 50, 59, 60, 53, 61, 64, 73, 82, 91, 100, 109, 119]),
            ("<f8", [2.0] * 7 + [1.0] * 6 + [2.0]),
        ],
        [
            ("x1", "f1", "lam1"), ("x2", "f1", "lam2"), ("x3", "f1", "lam3"),
            ("x4", "f2", "lam4"), ("x5", "f2", "lam5"),
            ("x6", "f1", "gamma1"), ("x6", "f2", "gamma2"),
        ],
        [
            ("x1", "x1", "u1"), ("x2", "x2", "u2"), ("x3", "x3", "u3"),
            ("x4", "x4", "u4"), ("x5", "x5", "u5"), ("x6", "x6", "u6"),
            ("f1", "f2", "phi"),
        ],
    ),
    "shared": (
        [0.5, 0.1, 0.1, 0.5, 0.5],
        [1.0, 0.1, 0.1, 0.75, 1.25],
        [True, False, False, True, True],
        [
            ("<i8", [0, 1, 2, 3, 0, 0, 4]),
            ("<i8", [12, 13, 14, 16, 18, 21, 26]),
            ("<f8", [2.0, 2.0, 2.0, 1.0, 2.0, 1.0, 1.0]),
        ],
        [("x1", "f", "t"), ("x2", "f", "l2"), ("x3", "f", "l3")],
        [("x1", "x1", "u1"), ("x1", "x3", "t"), ("x2", "x2", "t"), ("x3", "x3", "u3")],
    ),
}


class TestFreeEntries:
    @pytest.mark.parametrize("name", sorted(FREE_ENTRY_PINS))
    def test_readers_pinned(self, name):
        model = {"canonical": canonical_model, "shared": shared_entry_model}[name]()
        start, start_s, mask, gather, directed, symmetric = FREE_ENTRY_PINS[name]
        s = np.diag(1.5 + 0.5 * np.arange(model.n_observed))
        assert model.default_start().tolist() == start
        assert model.default_start(s).tolist() == start_s
        assert model.variance_param_mask.tolist() == mask
        assert [(a.dtype.str, a.tolist()) for a in model._gradient_gather] == gather
        doc = model_to_dict(model)
        free = [
            [(e["row"], e["col"], e["param"]) for e in doc[kind] if "param" in e]
            for kind in ("directed", "symmetric")
        ]
        assert free == [directed, symmetric]
        fixed = [(e["row"], e["col"], e["value"]) for e in doc["symmetric"] if "value" in e]
        assert fixed == {"canonical": [("f1", "f1", 1.0), ("f2", "f2", 1.0)],
                         "shared": [("x1", "x2", 0.2), ("f", "f", 1.0)]}[name]
        assert not [e for e in doc["directed"] if "value" in e]
        assert list(doc) == ["observed", "latent", "directed", "symmetric"]


def _bad_covariance(case):
    """Sigma1's population covariance with one defect."""
    s = np.array(condition_from_label("Sigma1").sigma_pop)
    if case == "nan":
        s[0, 1] = s[1, 0] = np.nan
    elif case == "inf":
        s[2, 2] = np.inf
    elif case == "non-square":
        s = s[:, :5]
    elif case == "wrong-size":
        s = s[:5, :5]
    elif case == "asymmetric":
        s[0, 1] += 1e-3
    else:  # "not-pd": unit variances with a covariance of 2
        s[0, 1] = s[1, 0] = 2.0
    return s


# each caller of the covariance rule, with the name it gives the matrix
_COV_CALLERS = {
    "f_ml": ("s", lambda cond, s: f_ml(cond.model, cond.theta_star, s)),
    "gradient": ("s", lambda cond, s: gradient(cond.model, cond.theta_star, s)),
    "hessian": ("s", lambda cond, s: hessian(cond.model, cond.theta_star, s)),
    "fit_ml": ("s", lambda cond, s: fit_ml(cond.model, s, n=200)),
    "PopulationCondition": ("sigma_pop", lambda cond, s: dataclasses.replace(cond, sigma_pop=s)),
    "wishart_sample": ("sigma", lambda cond, s: wishart_sample(
        s, 50, replication_rng(1, "Sigma1", 50, 0.0, 0))),
}
# sampling takes a covariance of any order, so a wrong size is not wrong there
_COV_CASES = [
    (caller, case)
    for caller in _COV_CALLERS
    for case in ("nan", "inf", "non-square", "wrong-size", "asymmetric", "not-pd")
    if (caller, case) != ("wishart_sample", "wrong-size")
]


class TestCovarianceRule:
    """Every covariance the package analyzes or samples from is checked by
    one rule, ``as_cov``: a bad one raises one error naming the matrix."""

    @pytest.mark.parametrize("caller, case", _COV_CASES)
    def test_bad_covariance_named(self, conditions, caller, case):
        which, call = _COV_CALLERS[caller]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ValueError, NotPositiveDefinite)) as err:
                call(conditions["Sigma1"], _bad_covariance(case))
        if case == "not-pd":
            assert err.type is NotPositiveDefinite and err.value.which == which
        else:
            assert err.type is ValueError and repr(which) in str(err.value)

    def test_symmetric_input_unchanged(self, conditions):
        # symmetrizing an exactly symmetric matrix is the identity
        sigma = conditions["Sigma1"].sigma_pop
        s, chol = as_cov(sigma, 6)
        assert s.tobytes() == np.asarray(sigma).tobytes()
        np.testing.assert_array_equal(chol, np.linalg.cholesky(sigma))


# each public count, with the name its error gives it and a call that
# passes it the value; f_target's n_focal is chisq_quantile's df
_COUNT_CALLERS = {
    "chisq_quantile": ("df", lambda fit, v: chisq_quantile(v, 0.95)),
    "f_target": ("df", lambda fit, v: f_target(ContourTarget(mode=CONFIDENCE), fit, n_focal=v)),
    "fit_ml": ("n", lambda fit, v: fit_ml(fit.model, fit.s, n=v)),
    "axis_widths_exact": ("n_directions", lambda fit, v: axis_widths_exact(
        fit, fit.f_hat + 0.1, (5, 6), v)),  # gamma1, gamma2
    "wishart_sample": ("n", lambda fit, v: wishart_sample(fit.s, v, replication_rng(1, "Sigma1", 50, 0.0, 0))),
    "replication_rng seed": ("seed", lambda fit, v: replication_rng(v, "Sigma1", 200, 0.0, 0)),
    "replication_rng n": ("n", lambda fit, v: replication_rng(1, "Sigma1", v, 0.0, 0)),
    "replication_rng rep": ("rep", lambda fit, v: replication_rng(1, "Sigma1", 200, 0.0, v)),
    "run_cell": ("n", lambda fit, v: run_cell(StudyDesign(replications=1), "Sigma1", v, 0.0, CONFIDENCE)),
    "run_design": ("threads", lambda fit, v: run_design(StudyDesign(replications=1), threads=v)),
    "rmsea_from_f df": ("df", lambda fit, v: rmsea_from_f(0.1, v, 200)),
    "rmsea_from_f n": ("n", lambda fit, v: rmsea_from_f(0.1, 8, v)),
    "f_from_rmsea df": ("df", lambda fit, v: f_from_rmsea(0.05, v, 200)),
    "f_from_rmsea n": ("n", lambda fit, v: f_from_rmsea(0.05, 8, v)),
    "focal_objectives": ("focal index", lambda fit, v: fit.focal_objectives((5, v))),
    "AxisWidths": ("focal index", lambda fit, v: AxisWidths(1.0, 0.5, [1.0, 0.0], [0.0, 1.0], (5, v))),
    "PopulationCondition": ("misfit_pair index", lambda fit, v: dataclasses.replace(
        condition_at("Sigma1", 0.0), misfit_pair=(0, v))),
}


class TestCountRule:
    """Every count the package takes is an integer by one rule, ``as_int``:
    a bool or a value that is not a :class:`numbers.Integral` raises one
    error naming the argument, and is never truncated."""

    @pytest.mark.parametrize("value", [200.5, 200.0, "200", True, np.float64(200.0)])
    @pytest.mark.parametrize("caller", list(_COUNT_CALLERS))
    def test_non_integer_count_named(self, popfits, caller, value):
        name, call = _COUNT_CALLERS[caller]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(popfits["Sigma1"], value)

    def test_numpy_integer_keeps_its_bytes(self, popfits):
        fit = popfits["Sigma1"]
        assert chisq_quantile(np.int64(2), 0.95) == chisq_quantile(2, 0.95)
        assert fit_ml(fit.model, fit.s, n=np.int32(200)).n == 200
        draws = [replication_rng(1, "Sigma1", n, 0.0, 0).random(4) for n in (200, np.int64(200))]
        assert draws[0].tobytes() == draws[1].tobytes()

    @pytest.mark.parametrize("value", [True, 1.0, np.float64(1.0)])
    def test_variable_index_is_an_integer(self, value):
        # a JSON true or 1.0 names no variable; it is never read as index 1
        with pytest.raises(ValueError, match="unknown variable"):
            make_model(["a", "b"], [], [{"row": value, "col": "a", "param": "b1"}],
                       [{"row": v, "col": v, "param": f"v{v}"} for v in ("a", "b")])


class TestBuiltinConditions:
    @pytest.mark.parametrize(
        "uv,se,label",
        [
            ("large_uv", "small_se", "Sigma1"),
            ("small_uv", "small_se", "Sigma2"),
            ("large_uv", "large_se", "Sigma3"),
            ("small_uv", "large_se", "Sigma4"),
        ],
    )
    def test_variant_labels(self, uv, se, label):
        cond = condition_from_label(label)
        assert cond.label == label
        theta = dict(zip(cond.model.theta_names, cond.theta_star))
        assert theta["u1"] == UNIQUE_VARIANCE_LEVELS[uv]
        assert theta["gamma1"] == STRUCTURAL_EFFECT_LEVELS[se]
        assert cond.epsilon_pop == 0.0
        np.testing.assert_allclose(
            cond.sigma_pop, sigma_of_theta(cond.model, cond.theta_star), atol=1e-14
        )

    def test_standardized_diagonal(self, conditions):
        for cond in conditions.values():
            np.testing.assert_allclose(np.diag(cond.sigma_pop), 1.0, atol=1e-12)

    def test_population_covariance_positive_definite(self, conditions):
        for cond in conditions.values():
            assert np.linalg.eigvalsh(cond.sigma_pop).min() > 0

    def test_levels_enter_theta_star(self):
        cond = condition_from_label("Sigma1")
        theta = dict(zip(cond.model.theta_names, cond.theta_star))
        assert theta["u1"] == 0.64
        assert theta["gamma1"] == 0.2
        assert theta["lam1"] == pytest.approx(math.sqrt(1 - 0.64))

    def test_unknown_variant(self):
        for label in ("Sigma9", "large_uv", ("large_uv", "small_se")):
            with pytest.raises(ValueError, match="unknown condition label"):
                condition_from_label(label)


class TestMisspecify:
    def test_zero_target_is_identity(self, conditions):
        cond = conditions["Sigma1"]
        assert misspecify_to_epsilon(cond, 0.0) is cond

    @pytest.mark.parametrize("eps", [0.03, 0.09])
    def test_round_trip(self, conditions, eps):
        mis = misspecify_to_epsilon(conditions["Sigma2"], eps)
        assert mis.epsilon_pop == eps
        achieved = population_rmsea(mis.model, mis.sigma_pop)
        assert abs(achieved - eps) <= 1e-6

    def test_monotone_perturbation(self, conditions):
        ts = [
            misspecify_to_epsilon(conditions["Sigma1"], eps).perturbation
            for eps in (0.0, 0.03, 0.06, 0.09)
        ]
        assert ts[0] == 0.0
        assert all(abs(ts[i]) < abs(ts[i + 1]) for i in range(3))

    # perturbations as solved before model and contour shared one
    # domain-edge bisector; study set-up and its reference table depend on
    # them bit for bit
    PINNED = {
        ("Sigma1", 0.03): "0x1.22e287aeb8b34p-4",
        ("Sigma1", 0.09): "0x1.bcf9d354a638bp-3",
        ("Sigma2", 0.03): "0x1.6492c8264123cp-5",
        ("Sigma2", 0.09): "0x1.070fe9c85b656p-3",
        ("Sigma3", 0.03): "0x1.0159832d01e5cp-4",
        ("Sigma3", 0.09): "0x1.7d37836a28563p-3",
        ("Sigma4", 0.03): "0x1.465de426b52dbp-5",
        ("Sigma4", 0.09): "0x1.e4051e4b9aa59p-4",
    }

    @pytest.mark.parametrize("label,eps", sorted(PINNED))
    def test_perturbation_pinned(self, label, eps):
        got = condition_at(label, eps).perturbation
        assert got.hex() == self.PINNED[label, eps]

    def test_unreachable_target(self, conditions):
        with pytest.raises(TargetUnreachable):
            misspecify_to_epsilon(conditions["Sigma1"], 2.0)

    @pytest.mark.parametrize(
        "slope, eps, fails, error, match",
        [
            # the walk brackets [0.2, 0.4]; the first secant step, 0.3, fails
            (0.1, 0.03, (0.25, 0.35), NotPositiveDefinite, "inside the misfit root bracket"),
            # fits fail past t = 0.5, where RMSEA is 0.05
            (0.1, 0.09, (0.5, math.inf), TargetUnreachable, "max attainable 0.0500"),
            # RMSEA stays 0 through all 60 doublings
            (0.0, 0.03, (math.inf, math.inf), TargetUnreachable, "search bracket"),
        ],
    )
    def test_search_outcomes(self, conditions, monkeypatch, slope, eps, fails, error, match):
        # a stand-in population fit whose RMSEA is slope * t, failing to
        # converge for t inside ``fails``
        cond = conditions["Sigma1"]
        i, j = cond.misfit_pair
        base = cond.sigma_pop[i, j]

        def stand_in(model, sigma, df=None):
            t = sigma[i, j] - base
            if fails[0] < t < fails[1]:
                raise NoConvergence(500, 1.0)
            return slope * t

        monkeypatch.setattr("fungible.fit.population_rmsea", stand_in)
        with pytest.raises(error, match=match):
            misspecify_to_epsilon(cond, eps)

    def test_jump_over_target_is_declared(self, conditions, monkeypatch):
        # a stand-in RMSEA that jumps from 0 to 0.1 at t = 0.3, so no root
        # meets the search's tolerance; it once raised a bare RuntimeError
        cond = conditions["Sigma1"]
        i, j = cond.misfit_pair
        base = cond.sigma_pop[i, j]
        monkeypatch.setattr("fungible.fit.population_rmsea",
                            lambda model, sigma, df=None: 0.1 * float(sigma[i, j] - base >= 0.3))
        with pytest.raises(RootAboveTolerance, match="misfit root residual above tolerance"):
            misspecify_to_epsilon(cond, 0.03)

    def test_negative_target_rejected(self, conditions):
        with pytest.raises(ValueError):
            misspecify_to_epsilon(conditions["Sigma1"], -0.01)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, conditions, eps):
        # NaN once failed the search as NotPositiveDefinite, and inf as
        # TargetUnreachable with a RuntimeWarning
        with pytest.raises(ValueError, match="epsilon_target must be finite and nonnegative"):
            misspecify_to_epsilon(conditions["Sigma1"], eps)

    def test_missing_direction_rejected(self, conditions):
        cond = dataclasses.replace(conditions["Sigma1"], misfit_pair=None)
        with pytest.raises(ValueError, match="perturbation direction"):
            misspecify_to_epsilon(cond, 0.03)
