import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fungible._solve import (_INVPHI, ABOVE_TOL, UNDEFINED, bracket_level,
                             bracketed_root, golden_max)
from helpers import reference_bracket_level, reference_bracketed_root, reference_golden_max


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


def _guess(a, b, rng, where):
    """A guess of each bracket's argmax for :func:`golden_max`: drawn
    inside [a, b], outside it (up to a bracket width beyond either end) or
    NaN."""
    if where == "nan":
        return np.full(len(a), np.nan)
    u = rng.uniform(0.0, 1.0, len(a))
    if where == "outside":
        u = np.where(rng.random(len(a)) < 0.5, -u, 1.0 + u)
    return a + u * (b - a)


GUESSES = st.sampled_from(["inside", "outside", "nan"])


X_TOLS = st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1])
MAX_ITERS = st.sampled_from([0, 1, 2, 3, 4, 5, 7, 13, 40, 200])


class TestGoldenMax:
    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), x_tol=X_TOLS, max_iter=MAX_ITERS, where=GUESSES)
    def test_commits_the_step_by_step_points(self, seed, x_tol, max_iter, where):
        a, b, values, rng = _problems(seed)
        guess = _guess(a, b, rng, where)
        (x_ref, f_ref), ref_calls = _run_reference(values, a, b, x_tol, max_iter)
        committed = set().union(*map(_points, ref_calls))
        calls = []

        def f(x, which):
            calls.append((np.array(x), np.array(which)))
            # every point the step-by-step search never evaluates faults, so
            # committing one would end the search with a nonzero code
            fault = [0 if (int(w), float(v)) in committed else 1 for w, v in zip(which, x)]
            return values(x, which), np.array(fault)

        x_la, f_la, fault = golden_max(f, a.copy(), b.copy(), guess, x_tol=x_tol,
                                       max_iter=max_iter)
        assert not fault.any()
        assert x_la.tobytes() == x_ref.tobytes()
        assert f_la.tobytes() == f_ref.tobytes()
        # the first call holds the initial pair; every later call commits at
        # least the step its values decide, so a point of step t of the
        # reference is among the points of one of calls 0..t, and there are
        # at most as many calls as reference calls.  Beside the initial
        # pair, no call evaluates more than max_iter golden steps of a
        # bracket; with a positive x_tol, at most one more than the steps
        # the reference takes on it, as a predicted path narrows the
        # bracket by the same factor per step (never more than those steps
        # over 2,400 drawn cases)
        assert _points(ref_calls[0]) <= _points(calls[0])
        for t, ref in enumerate(ref_calls[1:], 1):
            assert all(any(p in _points(call) for call in calls[: t + 1]) for p in _points(ref))
        assert len(calls) <= len(ref_calls)
        steps = sum(np.bincount(which, minlength=len(a)) for _, which in ref_calls[1:])
        limit = np.minimum(steps + 1, max_iter) if x_tol > 0.0 else max_iter
        assert (np.bincount(calls[0][1], minlength=len(a)) <= 2 + limit).all()
        for _, which in calls[1:]:
            assert (np.bincount(which, minlength=len(a)) <= limit).all()

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), x_tol=X_TOLS, max_iter=MAX_ITERS, where=GUESSES)
    def test_each_bracket_stops_at_its_own_fault(self, seed, x_tol, max_iter, where):
        a, b, values, rng = _problems(seed)
        n = len(a)
        guess = _guess(a, b, rng, where)
        # for some brackets, every point past a cut faults with that
        # bracket's code
        cut = np.where(rng.random(n) < 0.6, a + rng.uniform(0.0, 1.0, n) * (b - a), np.inf)
        codes = rng.choice([ABOVE_TOL, UNDEFINED], n)

        def f(x, which):
            return values(x, which), np.where(x > cut[which], codes[which], 0)

        got = golden_max(f, a.copy(), b.copy(), guess, x_tol=x_tol, max_iter=max_iter)
        for j in range(n):
            def alone(x, which, j=j):
                return f(x, np.full(len(which), j))

            one = slice(j, j + 1)
            want = golden_max(alone, a[one], b[one], guess[one], x_tol=x_tol, max_iter=max_iter)
            assert [v[one].tobytes() for v in got] == [v.tobytes() for v in want]
            # the step-by-step search on this bracket, cut before its first
            # step with a point past the cut (the initial pair's result, for
            # a fault in it)
            def reference(steps, j=j):
                return _run_reference(lambda x, w: values(x, np.full(len(w), j)), a[one], b[one],
                                      x_tol, steps)

            _, ref_calls = reference(max_iter)
            t = next((s for s, (x, _) in enumerate(ref_calls) if (x > cut[j]).any()), None)
            (x_ref, f_ref), _ = reference(max_iter if t is None else max(t - 1, 0))
            assert got[0][one].tobytes() == x_ref.tobytes()
            assert got[1][one].tobytes() == f_ref.tobytes()
            assert got[2][j] == (0 if t is None else codes[j])

    def test_mispredicted_fault_is_discarded(self):
        # a guess of 0.1 predicts f(c) >= f(d) for the first step, but f
        # peaks at 0.9: the first call's left-branch point is evaluated,
        # faults, and is never committed
        c, d = 1.0 - _INVPHI, _INVPHI
        mispredicted = d - _INVPHI * d
        seen = []

        def f(x, which):
            seen.extend(x.tolist())
            return -((x - 0.9) ** 2), np.where(x == mispredicted, UNDEFINED, 0)

        x, fx, fault = golden_max(f, [0.0], [1.0], [0.1], x_tol=1e-6)
        assert seen[:3] == [c, d, mispredicted]
        assert not fault.any()
        (x_ref, f_ref), _ = _run_reference(lambda x, _: -((x - 0.9) ** 2), [0.0], [1.0], 1e-6, 200)
        assert (x[0], fx[0]) == (x_ref[0], f_ref[0])

    def test_runs_to_max_iter_without_tolerance(self):
        def run(guess):
            calls = []

            def f(x, which):
                calls.append(len(x))
                return -(x - 0.3) ** 2, np.zeros(len(x), dtype=int)

            x, fx, fault = golden_max(f, [0.0], [1.0], [guess], x_tol=0.0, max_iter=10)
            assert not fault.any()
            assert abs(x[0] - 0.3) < 0.01
            return calls

        # a guess at the midpoint: the first call's second step is
        # mispredicted; the second call's parabola through three points of
        # the quadratic predicts every step after it
        assert run(0.5) == [2 + 10, 9]
        # a guess at the argmax: the first call commits all 10
        assert run(0.3) == [12]


REGULAR, ENDPOINT, NAN_GAP, JUMP, SLIVER = range(5)


def _root_problems(seed):
    """A batch of root problems g(x) = 0 on [lo, hi], with d = (x - lo) -
    offset the signed distance to the root: a monotone cubic in d (REGULAR);
    the same with the root at lo or at hi (ENDPOINT); NaN on a gap around
    the root (NAN_GAP); a jump from -slope to slope at the root, which no
    point meets (JUMP); and a bracket 5 ulps wide whose root lies halfway
    between two floats (SLIVER).  The first five problems take one kind
    each, in that order; the rest are drawn.  Returns ``(kinds, lo, hi,
    slope, g)``, ``slope`` g's slope at each root."""
    rng = np.random.default_rng(seed)
    kinds = np.concatenate([np.arange(5), rng.integers(0, 5, int(rng.integers(0, 6)))])
    n = len(kinds)
    lo = np.where(kinds == SLIVER, rng.uniform(0.01, 0.4, n), rng.uniform(-2.0, 2.0, n))
    width = np.where(kinds == SLIVER, 5 * np.spacing(lo), rng.uniform(0.1, 10.0, n))
    hi = lo + width
    offset = np.select(
        [kinds == SLIVER, kinds == ENDPOINT],
        [2.5 * np.spacing(lo), np.where(rng.random(n) < 0.5, 0.0, hi - lo)],
        rng.uniform(0.05, 0.95, n) * (hi - lo),
    )
    slope = np.where(kinds == SLIVER, 1e12, 10.0 ** rng.uniform(0.0, 3.0, n))
    cubic = np.where(kinds == SLIVER, 0.0, rng.choice([0.0, 1.0, 30.0], n))
    room = np.minimum(offset, hi - lo - offset)  # from the root to the nearer end
    gap = np.where(kinds == NAN_GAP, rng.uniform(1e-3, 0.9, n) * room, 0.0)

    def g(x, which):
        d = (x - lo[which]) - offset[which]
        s = slope[which]
        v = np.where(kinds[which] == JUMP, np.where(d >= 0, s, -s), s * d + cubic[which] * d**3)
        return np.where(np.abs(d) < gap[which], np.nan, v)

    return kinds, lo, hi, slope, g


class TestBracketedRoot:
    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        f_tol=st.sampled_from([0.0, 1e-12, 1e-9]),
        max_iter=st.sampled_from([1, 2, 3, 5, 200]),
    )
    @example(seed=3889, f_tol=1e-12, max_iter=200)
    def test_matches_scalar_search(self, seed, f_tol, max_iter):
        kinds, lo, hi, slope, g = _root_problems(seed)
        every = np.arange(len(lo))
        g_lo, g_hi = g(lo, every), g(hi, every)
        seen = [[] for _ in lo]

        def recording(x, which):
            for k, v in zip(which, x):
                seen[k].append(float(v))
            return g(x, which)

        root, fault = bracketed_root(recording, lo, hi, g_lo, g_hi, f_tol=f_tol, max_iter=max_iter)
        for k in range(len(lo)):
            visited = []

            def scalar(x):
                visited.append(x)
                return float(g(np.array([x]), np.array([k]))[0])

            want_root, want_fault = reference_bracketed_root(
                scalar, float(lo[k]), float(hi[k]), float(g_lo[k]), float(g_hi[k]),
                f_tol=f_tol, max_iter=max_iter,
            )
            assert seen[k] == visited
            assert root[k].tobytes() == np.float64(want_root).tobytes()
            assert fault[k] == want_fault
        # every kind ends its own way
        at_end = kinds == ENDPOINT
        assert not fault[at_end].any() and np.isin(root[at_end], [lo[at_end], hi[at_end]]).all()
        assert (fault[np.isin(kinds, [JUMP, SLIVER])] == ABOVE_TOL).all()
        if max_iter == 200:
            assert (fault[kinds == NAN_GAP] == UNDEFINED).all()
            # a regular root is met wherever some float can meet f_tol: the
            # floats next to it are at most an ulp of the bracket's larger
            # end apart, so g there is within slope ulp of 0
            meetable = slope * np.spacing(np.maximum(np.abs(lo), np.abs(hi))) <= f_tol / 8
            assert not fault[(kinds == REGULAR) & meetable].any()

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


# each validation branch of the module with a call that takes it and the
# message it raises
_VALIDATION_CASES = {
    "bracket not straddling": (lambda: bracketed_root(lambda x, which: x - 2.0, [0.0], [1.0], [-2.0],
                                                      [-1.0], f_tol=1e-12),
                               "bracket does not straddle the root"),
}


@pytest.mark.parametrize("case", list(_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = _VALIDATION_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
