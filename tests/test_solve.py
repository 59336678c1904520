import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fungible._solve import ABOVE_TOL, UNDEFINED, bracketed_root, golden_max
from helpers import reference_golden_max


def _problems(seed):
    """Brackets of widths 1e-4 .. 10 (so searches finish at different
    steps) and per bracket a concave parabola, flat for some, rounded to a
    coarse grid for some (ties fc == fd) and -inf past a cut for some."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = rng.uniform(-2.0, 2.0, n)
    width = 10.0 ** rng.uniform(-4.0, 1.0, n)
    b = a + width
    center = a + rng.uniform(-0.5, 1.5, n) * width
    curv = rng.choice([0.0, 1.0, 50.0], n)
    quantum = rng.choice([0.0, 0.01, 0.3], n) * np.maximum(curv, 1.0) * width**2
    cut = np.where(rng.random(n) < 0.3, a + rng.uniform(0.0, 1.0, n) * width, np.inf)

    def values(x, which):
        v = -curv[which] * (x - center[which]) ** 2
        q = quantum[which]
        v = np.where(q > 0.0, np.round(v / np.where(q > 0.0, q, 1.0)) * q, v)
        return np.where(x > cut[which], -np.inf, v)

    return a, b, values, rng


def _points(call):
    x, which = call
    return {(int(w), float(v)) for w, v in zip(which, x)}


def _run_reference(values, a, b, x_tol, max_iter):
    calls = []

    def f(x, which):
        calls.append((np.array(x), np.array(which)))
        return values(x, which)

    return reference_golden_max(f, a, b, x_tol=x_tol, max_iter=max_iter), calls


X_TOLS = st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1])
MAX_ITERS = st.sampled_from([0, 1, 2, 3, 4, 5, 7, 40, 200])


class TestGoldenMax:
    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), x_tol=X_TOLS, max_iter=MAX_ITERS)
    def test_commits_the_step_by_step_points(self, seed, x_tol, max_iter):
        a, b, values, _ = _problems(seed)
        (x_ref, f_ref), ref_calls = _run_reference(values, a, b, x_tol, max_iter)
        committed = set().union(*map(_points, ref_calls))
        calls = []

        def f(x, which):
            calls.append((np.array(x), np.array(which)))
            # every point the step-by-step search never evaluates faults, so
            # committing one would end the search with a nonzero code
            fault = [0 if (int(w), float(v)) in committed else 1 for w, v in zip(which, x)]
            return values(x, which), np.array(fault)

        x_la, f_la, fault = golden_max(f, a.copy(), b.copy(), x_tol=x_tol, max_iter=max_iter)
        assert not fault.any()
        assert x_la.tobytes() == x_ref.tobytes()
        assert f_la.tobytes() == f_ref.tobytes()
        # step t of the reference is among the points of look-ahead call
        # 1 + (t - 1) // 3; no call evaluates more than 7 points per bracket
        steps = len(ref_calls) - 1
        assert len(calls) == 1 + math.ceil(steps / 3)
        assert _points(ref_calls[0]) == _points(calls[0])
        for t in range(1, steps + 1):
            assert _points(ref_calls[t]) <= _points(calls[1 + (t - 1) // 3])
        for _, which in calls[1:]:
            assert np.bincount(which).max() <= 7

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), x_tol=X_TOLS, max_iter=MAX_ITERS)
    def test_committed_fault_ends_the_search(self, seed, x_tol, max_iter):
        a, b, values, rng = _problems(seed)
        _, ref_calls = _run_reference(values, a, b, x_tol, max_iter)
        t = int(rng.integers(0, len(ref_calls)))
        x_bad, which = ref_calls[t]
        k = int(rng.integers(0, len(which)))
        bad = (int(which[k]), float(x_bad[k]))

        def f(x, which):
            hit = [(int(w), float(v)) == bad for w, v in zip(which, x)]
            return values(x, which), np.where(hit, UNDEFINED, 0)

        *_, fault = golden_max(f, a.copy(), b.copy(), x_tol=x_tol, max_iter=max_iter)
        want = np.zeros(len(a), dtype=int)
        want[bad[0]] = UNDEFINED
        np.testing.assert_array_equal(fault, want)

    def test_runs_to_max_iter_without_tolerance(self):
        calls = []

        def f(x, which):
            calls.append(len(x))
            return -(x - 0.3) ** 2, np.zeros(len(x), dtype=int)

        x, fx, fault = golden_max(f, [0.0], [1.0], x_tol=0.0, max_iter=10)
        # the initial pair, then 10 steps in rounds of 3, 3, 3 and 1
        assert calls == [2, 7, 7, 7, 1]
        assert not fault.any()
        assert abs(x[0] - 0.3) < 0.01


class TestBracketedRoot:
    def test_faults_stay_per_element(self):
        # element 0 is undefined left of 0.55, element 1 jumps over zero at
        # 0.3 without reaching the tolerance, element 2 is regular
        def g(x, which):
            out = x - 0.4
            out = np.where((which == 0) & (x < 0.55), np.nan, out)
            return np.where(which == 1, np.where(x < 0.3, -1.0, 1.0), out)

        root, fault = bracketed_root(
            g, np.zeros(3), np.ones(3), [-0.4, -1.0, -0.4], [0.6, 1.0, 0.6], f_tol=1e-9
        )
        np.testing.assert_array_equal(fault, [UNDEFINED, ABOVE_TOL, 0])
        assert np.isnan(root[:2]).all()
        alone, alone_fault = bracketed_root(
            lambda x, _: x - 0.4, [0.0], [1.0], [-0.4], [0.6], f_tol=1e-9
        )
        assert root[2] == alone[0] and alone_fault[0] == 0
