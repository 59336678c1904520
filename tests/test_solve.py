import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fungible._solve import ABOVE_TOL, UNDEFINED, bracket_level, bracketed_root, golden_max
from helpers import reference_bracket_level, reference_golden_max


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


CLIMB, EDGE_INSIDE, EDGE_BEYOND, EXHAUSTED = range(4)


def _level_problems(seed, doublings):
    """A batch of lines g(x) = slope (x - root), NaN past ``edge``, whose
    walks from [lo, hi] end in each of the four ways: the level is climbed
    out to within the domain, the doubling jumps the domain edge with the
    level inside it or beyond it, or the doublings run out.  The first four
    problems take one way each, in that order; the rest are drawn."""
    rng = np.random.default_rng(seed)
    kinds = np.concatenate([np.arange(4), rng.integers(0, 4, int(rng.integers(0, 6)))])
    n = len(kinds)
    lo = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
    hi = lo + rng.uniform(0.1, 10.0, n)
    slope = 10.0 ** rng.uniform(-3.0, 3.0, n)
    # h is the last hi below the root; the next doubling lands on 2 h
    h = hi * 2.0 ** rng.integers(0, doublings - 1, n)
    v, w = rng.uniform(0.0, 0.3, n), rng.uniform(0.1, 0.7, n)
    root = np.select(
        [kinds == CLIMB, kinds == EXHAUSTED, kinds == EDGE_INSIDE],
        [h * (1.0 + 2 * v), hi * 2.0 ** (doublings + 4), h * (1.0 + v)],
        h * (1.0 + v + w),
    )
    edge = np.select(
        [kinds == CLIMB, kinds == EXHAUSTED, kinds == EDGE_INSIDE],
        [np.inf, np.inf, h * (1.0 + v + w)],
        h * (1.0 + v),
    )

    def g(x, which):
        return np.where(x > edge[which], np.nan, slope[which] * (x - root[which]))

    return kinds, lo, hi, g


class TestBracketLevel:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        doublings=st.integers(2, 40),
        edge_iters=st.integers(12, 80),
    )
    def test_matches_scalar_walk(self, seed, doublings, edge_iters):
        kinds, lo, hi, g = _level_problems(seed, doublings)
        g_lo = g(lo, np.arange(len(lo)))
        seen = [[] for _ in lo]

        def recording(x, which):
            for k, v in zip(which, x):
                seen[k].append(float(v))
            return g(x, which)

        got = bracket_level(recording, lo, hi, g_lo, doublings=doublings, edge_iters=edge_iters)
        for k in range(len(lo)):
            visited = []

            def scalar(x):
                visited.append(x)
                return float(g(np.array([x]), np.array([k]))[0])

            want = reference_bracket_level(
                scalar, float(lo[k]), float(hi[k]), float(g_lo[k]),
                doublings=doublings, edge_iters=edge_iters,
            )
            assert seen[k] == visited
            for field, value in zip(got[:4], want[:4]):
                assert field[k].tobytes() == np.float64(value).tobytes()
            assert got[4][k] == want[4]
        # every kind ends its own way
        lo, hi, g_lo, g_hi, escaped = got
        bracketed = np.isin(kinds, [CLIMB, EDGE_INSIDE])
        assert not escaped[bracketed].any()
        assert (g_lo[bracketed] < 0).all() and (g_hi[bracketed] >= 0).all()
        assert (lo[bracketed] < hi[bracketed]).all()
        assert escaped[kinds == EDGE_BEYOND].all() and (g_hi[kinds == EDGE_BEYOND] < 0).all()
        assert escaped[kinds == EXHAUSTED].all() and np.isnan(g_hi[kinds == EXHAUSTED]).all()
