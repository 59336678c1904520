"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Oracles here are independent of the code paths they check: finite
differences for gradients, a dense-grid diameter for contour widths, and
bisection on scipy's regularized incomplete gamma for quantiles.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fungible import (
    ContourTarget,
    StudyDesign,
    axis_widths_exact,
    axis_widths_quadratic,
    chisq_quantile,
    condition_from_label,
    emit_table,
    f_ml,
    f_target,
    fit_ml,
    fpe_sample,
    gradient,
    population_rmsea,
    run_cell,
    run_design,
    sigma_of_theta,
    wishart_sample,
    replication_rng,
)
from fungible.cli import main as cli_main
from fungible.simstudy import condition_at
from helpers import QuadraticSurrogate, clear_fit_caches, finite_diff_gradient, random_model

LABELS = ("Sigma1", "Sigma2", "Sigma3", "Sigma4")
SQRT_N_RATIO = math.sqrt(999.0 / 199.0)


def _report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model, theta, s = random_model(rng)
        g_a = gradient(model, theta, s)
        g_fd = finite_diff_gradient(model, theta, s)
        rel = np.abs(g_a - g_fd).max() / max(1.0, np.abs(g_a).max())
        worst = max(worst, rel)
        assert rel < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"analytic vs central-difference gradient on 100 random triples, "
               f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_discrepancy_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        model, theta, _ = random_model(rng)
        value = f_ml(model, theta, sigma_of_theta(model, theta))
        worst = max(worst, value)
        assert value < 1e-12
    _report(2, f"f_ml(model, theta, Sigma(theta)) on 100 random thetas, "
               f"worst value {worst:.2e}")


def test_criterion_03_analytic_ellipse_fixture():
    fit = QuadraticSurrogate(np.diag([4.0, 1.0]))
    t_target = fit.f_hat + 0.02
    quad = axis_widths_quadratic(fit, t_target, (0, 1))
    exact = axis_widths_exact(fit, t_target, (0, 1), 360)
    for aw in (quad, exact):
        assert aw.major == pytest.approx(0.4, abs=1e-6)
        assert aw.minor == pytest.approx(0.2, abs=1e-6)
    _report(3, f"H=diag(4,1), c=0.02: quadratic ({quad.major:.8f}, {quad.minor:.8f}) "
               f"and exact ({exact.major:.8f}, {exact.minor:.8f}) both (0.4, 0.2)")


def test_criterion_04_contour_residuals():
    targets = (
        ContourTarget(mode="confidence", confidence=0.95),
        ContourTarget(mode="eps_tilde", epsilon_tilde=0.005),
        ContourTarget(mode="delta_f", delta_f=0.05, scaling="likelihood"),
    )
    worst = 0.0
    n_points = 0
    for label in LABELS:
        cond = condition_from_label(label)
        res = fit_ml(cond.model, cond.sigma_pop, n=200)
        for target in targets:
            level = f_target(target, res, n_focal=2)
            points = fpe_sample(res, target, (5, 6), 48)
            assert len(points) == 48
            for theta in points:
                resid = abs(f_ml(res.model, theta, res.s) - level)
                worst = max(worst, resid)
                n_points += 1
                assert resid <= 1e-9
    _report(4, f"{n_points} contour points across 4 conditions x 3 modes, "
               f"worst |F - T| = {worst:.2e}")


def _grid_oracle_major(res, t_target, focal, half_span, grid_points=2001):
    """Independent width oracle: evaluate F on a dense focal-plane grid in
    closed form, collect the points inside a gradient-adaptive band around
    the level, and measure the maximum pairwise distance.

    Both focal parameters are paths into one observed variable r that has
    no children, so only Sigma's row and column r move over the grid: with
    o the other observed variables, Sigma_oo is constant, Sigma_or is linear
    and Sigma_rr quadratic in the focal pair (g1, g2).  ln|Sigma| and
    tr(S Sigma^-1) then follow from the Schur complement
    k = Sigma_rr - Sigma_ro Sigma_oo^-1 Sigma_or, and F is ln k plus a
    ratio of two quadratics in (g1, g2) over the whole grid at once.  The
    closed form is checked against the full-matrix F on one grid row and
    the four corners."""
    from scipy.spatial import ConvexHull

    model = res.model
    theta_hat = np.asarray(res.theta_hat)
    g1 = np.linspace(theta_hat[focal[0]] - half_span, theta_hat[focal[0]] + half_span, grid_points)
    g2 = np.linspace(theta_hat[focal[1]] - half_span, theta_hat[focal[1]] + half_span, grid_points)
    h = g1[1] - g1[0]

    a_fixed = model.directed_fixed.copy()
    s_mat = model.symmetric_fixed.copy()
    for k, v in enumerate(theta_hat):
        if k not in focal:
            a_fixed[model.directed_param == k] = v
        s_mat[model.symmetric_param == k] = v
    mask1 = (model.directed_param == focal[0]).astype(float)
    mask2 = (model.directed_param == focal[1]).astype(float)
    assert mask1.any() and mask2.any()  # focal parameters live in the directed matrix

    p = model.n_observed
    eye = np.eye(model.m)
    s_obs = np.asarray(res.s)
    ld_s = np.linalg.slogdet(s_obs)[1]

    def full_f(x, y):
        """F at the points (x[i], y[i]) from the full m x m matrices."""
        a = a_fixed[None] + x[:, None, None] * mask1[None] + y[:, None, None] * mask2[None]
        g_inv = np.linalg.inv(eye[None] - a)
        c = g_inv @ s_mat @ np.transpose(g_inv, (0, 2, 1))
        sigma = c[:, :p, :p]
        sigma = 0.5 * (sigma + np.transpose(sigma, (0, 2, 1)))
        chol = np.linalg.cholesky(sigma)
        logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        solved = np.linalg.solve(sigma, np.broadcast_to(s_obs, sigma.shape))
        return logdet - ld_s + np.trace(solved, axis1=1, axis2=2) - p

    # the structure the closed form rests on: one observed row r of A holds
    # both focal paths, and no variable depends on r
    rows = np.nonzero(mask1 + mask2)[0]
    r = int(rows[0])
    assert (rows == r).all() and r < p
    assert not (model.directed_param[:, r] >= 0).any() and not model.directed_fixed[:, r].any()

    # C0: the implied covariance with row r of A emptied (v_r = e_r); every
    # entry off row and column r is the grid's, whatever the focal values
    a0 = a_fixed.copy()
    a0[r] = 0.0
    g0 = np.linalg.inv(eye - a0)
    c0 = g0 @ s_mat @ g0.T
    o = [i for i in range(p) if i != r]
    # row r of A is basis @ (1, g1, g2); Sigma_or = u @ (1, g1, g2), and
    # Sigma_rr = (1, g1, g2) q_rr (1, g1, g2)'
    basis = np.array([a_fixed[r], mask1[r], mask2[r]])
    u = c0[o] @ basis.T
    u[:, 0] += c0[o, r]
    w = basis @ c0[:, r]
    q_rr = basis @ c0 @ basis.T
    q_rr[0] += w
    q_rr[:, 0] += w
    q_rr[0, 0] += c0[r, r]
    sigma_oo = c0[np.ix_(o, o)]
    b = np.linalg.solve(sigma_oo, u)  # Sigma_oo^-1 Sigma_or = b @ (1, g1, g2)
    q_k = q_rr - u.T @ b
    t_oo, t_or = s_obs[np.ix_(o, o)], s_obs[o, r]
    q_n = b.T @ t_oo @ b
    q_n[0] -= t_or @ b
    q_n[:, 0] -= t_or @ b
    q_n[0, 0] += s_obs[r, r]
    # tr(S Sigma^-1) = tr(S_oo Sigma_oo^-1) + q_n / q_k
    const = (np.linalg.slogdet(sigma_oo)[1] - ld_s
             + np.trace(np.linalg.solve(sigma_oo, t_oo)) - p)

    x, y = g1[None, :], g2[:, None]

    def quad(q):
        """(1, g1, g2) q (1, g1, g2)' at every grid point."""
        return (q[0, 0] + 2.0 * q[0, 1] * x + 2.0 * q[0, 2] * y
                + q[1, 1] * x * x + 2.0 * q[1, 2] * x * y + q[2, 2] * y * y)

    schur = quad(q_k)
    f_grid = const + np.log(schur) + quad(q_n) / schur
    check_rows = np.r_[np.full(grid_points, grid_points // 4), 0, 0, grid_points - 1, grid_points - 1]
    check_cols = np.r_[np.arange(grid_points), 0, grid_points - 1, 0, grid_points - 1]
    np.testing.assert_allclose(
        f_grid[check_rows, check_cols], full_f(g1[check_cols], g2[check_rows]), rtol=1e-12, atol=0.0
    )

    gy, gx = np.gradient(f_grid, h)
    band = 0.75 * h * np.sqrt(gx ** 2 + gy ** 2)
    ys, xs = np.nonzero(np.abs(f_grid - t_target) <= band)
    assert len(xs) > 100
    points = np.column_stack([g1[xs], g2[ys]])
    hull = points[ConvexHull(points).vertices]
    dist2 = ((hull[:, None, :] - hull[None, :, :]) ** 2).sum(axis=-1)
    return math.sqrt(dist2.max())


def test_criterion_05_grid_oracle_equivalence():
    start = time.perf_counter()
    cond = condition_from_label("Sigma1")
    res = fit_ml(cond.model, cond.sigma_pop, n=200)
    focal = (5, 6)
    t_level = f_target(ContourTarget(mode="confidence", confidence=0.95), res, n_focal=2)
    quad = axis_widths_quadratic(res, t_level, focal)
    exact = axis_widths_exact(res, t_level, focal, 360)
    oracle = _grid_oracle_major(res, t_level, focal, half_span=3.0 * quad.major / 2.0)
    elapsed = time.perf_counter() - start
    rel = abs(oracle - exact.major) / exact.major
    assert rel <= 0.02
    assert elapsed < 60.0
    _report(5, f"2001^2 grid-oracle major width {oracle:.5f} vs exact {exact.major:.5f} "
               f"({rel:.3%} apart), {elapsed:.1f}s")


def test_criterion_06_sqrt_n_scaling():
    cond = condition_from_label("Sigma1")
    res = fit_ml(cond.model, cond.sigma_pop, n=200)
    focal = (5, 6)

    cs = ContourTarget(mode="confidence", confidence=0.95)
    small = axis_widths_quadratic(res, f_target(cs, res, n_focal=2), focal)
    big_fit = dataclasses.replace(res, n=1000)
    big = axis_widths_quadratic(big_fit, f_target(cs, big_fit, n_focal=2), focal)
    for ratio in (small.major / big.major, small.minor / big.minor):
        assert ratio == pytest.approx(SQRT_N_RATIO, abs=1e-10)

    # the likelihood-scaled FPE offset inherits the same ratio in sampled runs
    df_target = ContourTarget(mode="delta_f", delta_f=0.05, scaling="likelihood")
    worst = 0.0
    for rep in range(3):
        rng = replication_rng(606, "Sigma1", 200, 0.0, rep)
        s = wishart_sample(cond.sigma_pop, 200, rng)
        sampled = fit_ml(cond.model, s, n=200)
        sampled_big = dataclasses.replace(sampled, n=1000)
        w_small = axis_widths_exact(sampled, f_target(df_target, sampled), focal, 96)
        w_big = axis_widths_exact(sampled_big, f_target(df_target, sampled_big), focal, 96)
        for ratio in (w_small.major / w_big.major, w_small.minor / w_big.minor):
            worst = max(worst, abs(ratio / SQRT_N_RATIO - 1.0))
            assert abs(ratio / SQRT_N_RATIO - 1.0) <= 0.01
    _report(6, f"confidence-set quadratic widths scale by sqrt(999/199) exactly; "
               f"sampled likelihood-delta_f exact widths within {worst:.2%} of it")


def test_criterion_07_paper_table_consistency(capsys):
    start = time.perf_counter()
    code = cli_main(["table-check"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(") ok") == 8
    assert "all checks passed" in out
    assert elapsed < 1.0
    with capsys.disabled():
        _report(7, f"all 8 major and 8 minor reference widths satisfy the "
                   f"sqrt(999/199) scaling within 0.015, {elapsed:.2f}s")


def test_criterion_08_misfit_round_trip():
    worst = 0.0
    for label in LABELS:
        for eps in (0.0, 0.03, 0.09):
            cond = condition_at(label, eps)
            achieved = population_rmsea(cond.model, cond.sigma_pop)
            worst = max(worst, abs(achieved - eps))
            assert abs(achieved - eps) <= 1e-6
    _report(8, f"population RMSEA round trip over 4 conditions x 3 targets, "
               f"worst |achieved - target| = {worst:.2e}")


def test_criterion_09_misfit_monotonicity():
    design = StudyDesign(
        replications=1,
        directions=32,
        seed=1,
        population_analysis=("confidence", "eps_tilde", "delta_f"),
    )
    for label in LABELS:
        for n in (1000, 200):
            majors, minors = [], []
            for eps in (0.0, 0.03, 0.09):
                cell = run_cell(design, label, n, eps, "delta_f")
                majors.append(cell.major_mean)
                minors.append(cell.minor_mean)
            assert majors[0] < majors[1] < majors[2], (label, n, majors)
            assert minors[0] < minors[1] < minors[2], (label, n, minors)
    _report(9, "delta_f-mode widths strictly increase over eps {0, .03, .09} "
               "in every (condition, N) cell")


def test_criterion_10_wishart_and_determinism():
    rng = replication_rng(77, "chi2", 25, 0.0, 0)
    n = 25
    draws = np.array(
        [wishart_sample(np.array([[1.0]]), n, rng)[0, 0] for _ in range(10000)]
    )
    mean = ((n - 1) * draws).mean()
    band = 3 * math.sqrt(2.0 * (n - 1) / 10000)
    assert abs(mean - (n - 1)) < band

    design = StudyDesign(
        conditions=("Sigma1",),
        sample_sizes=(200,),
        epsilons=(0.0,),
        replications=2,
        seed=42,
        directions=16,
    )
    csv_a = emit_table(run_design(design, threads=1), "csv")
    clear_fit_caches()
    csv_b = emit_table(run_design(design, threads=1), "csv")
    assert csv_a == csv_b
    _report(10, f"(n-1)S chi-square mean {mean:.2f} within 3 SE of {n - 1}; "
                f"equal seeds reproduce byte-identical study CSV")


def _chisq_bisection_oracle(df, prob):
    from scipy.special import gammainc

    lo, hi = 0.0, 1.0
    while gammainc(df / 2.0, hi / 2.0) < prob:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gammainc(df / 2.0, mid / 2.0) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_11_chisq_quantile_oracle():
    worst = 0.0
    for df in (1, 2, 5, 9, 20):
        for prob in (0.5, 0.9, 0.95, 0.99):
            ours = chisq_quantile(df, prob)
            oracle = _chisq_bisection_oracle(df, prob)
            worst = max(worst, abs(ours - oracle))
            assert abs(ours - oracle) <= 1e-8
    _report(11, f"chisq_quantile vs incomplete-gamma bisection oracle on a "
                f"5 x 4 grid, worst |diff| = {worst:.2e}")
