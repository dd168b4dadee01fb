"""The lockstep bracketing solver ``util.brentq``.

scipy's ``brentq`` is the oracle: every lane must return its root bit for
bit, fail where it fails, and succeed where it succeeds.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

from cocycle_lab import util
from cocycle_lab.errors import ResolutionError, ValidationError


def smooth(c):
    """A smooth function with coefficients c, on floats and on arrays.

    Only sin and IEEE arithmetic: ``**`` rounds differently on numpy arrays
    and on Python floats, so it would make the two sides differ."""
    def f(x):
        return np.sin(c[0] * x + c[1]) + c[2] * x * x * x + c[3] * x - c[4]
    return f


def each(f):
    """A batched function that calls the scalar f once per point."""
    return lambda x, lanes: [f(float(v)) for v in x]


coefs = st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5)
tols = st.sampled_from([2e-12, 1e-14, 1e-6, 5e-324])


def changes_sign(f, a, b):
    return np.signbit(f(a)) != np.signbit(f(b)) and f(a) != 0.0 and f(b) != 0.0


def scipy_root(f, a, b, **kw):
    """scipy's root, or None where it runs out of iterations."""
    root, info = optimize.brentq(f, a, b, full_output=True, disp=False, **kw)
    return root if info.converged else None


def agrees(solve, want):
    """solve() returns want bit for bit, or raises where want is None."""
    if want is None:
        with pytest.raises(ResolutionError, match="did not converge"):
            solve()
    else:
        assert solve() == want


@given(coefs, st.floats(-4.0, 0.0), st.floats(1e-3, 4.0), tols)
@settings(max_examples=300, deadline=None)
def test_each_lane_matches_scipy_bit_for_bit(c, a, width, xtol):
    f = smooth(c)
    b = a + width
    assume(changes_sign(f, a, b))
    agrees(lambda: util.brentq(lambda x, lanes: f(x), a, b, xtol=xtol),
           scipy_root(f, a, b, xtol=xtol))


@given(st.lists(st.tuples(coefs, st.floats(-4.0, 0.0), st.floats(1e-3, 4.0)),
                min_size=1, max_size=8),
       st.sampled_from([1e-14, 2e-12]), st.integers(20, 200))
@settings(max_examples=60, deadline=None)
def test_lockstep_equals_solo_solves(cases, xtol, maxiter):
    cases = [(smooth(c), a, a + w) for c, a, w in cases]
    cases = [case for case in cases if changes_sign(*case)]
    assume(cases)
    fs = [f for f, _, _ in cases]
    a = np.array([a for _, a, _ in cases])
    b = np.array([b for _, _, b in cases])
    calls = []

    def batched(x, lanes):
        calls.append(len(x))
        return [fs[k](xi) for xi, k in zip(x, lanes)]

    want = [scipy_root(f, a[k], b[k], xtol=xtol, maxiter=maxiter)
            for k, f in enumerate(fs)]
    # a lane that runs out of iterations fails the whole solve
    assume(None not in want)
    got = util.brentq(batched, a, b, xtol=xtol, maxiter=maxiter)
    for k, f in enumerate(fs):
        solo = util.brentq(lambda x, lanes: f(x), a[k], b[k], xtol=xtol,
                           maxiter=maxiter)
        assert got[k] == solo == want[k]
    # one call for both ends, then one per iteration; lanes drop out
    assert calls[0] == 2 * len(fs)
    assert all(n1 >= n2 for n1, n2 in zip(calls[1:], calls[2:]))
    # known end values give the same roots without the first call
    fa = [f(x) for f, x in zip(fs, a)]
    fb = [f(x) for f, x in zip(fs, b)]
    again = util.brentq(batched, a, b, xtol=xtol, maxiter=maxiter, fa=fa, fb=fb)
    assert np.array_equal(again, got)


def test_zeros_at_the_ends():
    f = lambda x: x - 1.0                    # noqa: E731
    assert util.brentq(lambda x, _: f(x), 1.0, 3.0) == 1.0
    assert util.brentq(lambda x, _: f(x), -2.0, 1.0) == 1.0
    assert optimize.brentq(f, 1.0, 3.0) == 1.0
    # both ends zero: the left end wins, as in scipy
    g = lambda x: (x - 1.0) * (x - 2.0)      # noqa: E731
    assert util.brentq(lambda x, _: g(x), 1.0, 2.0) == 1.0
    assert optimize.brentq(g, 1.0, 2.0) == 1.0
    # an end zero in one lane does not disturb the others
    roots = util.brentq(lambda x, lanes: np.where(lanes == 0, x - 1.0, x * x - 2.0),
                        [1.0, 0.0], [3.0, 2.0])
    assert roots[0] == 1.0
    assert roots[1] == optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0)
    # a root at an end needs no iteration
    assert util.brentq(lambda x, _: f(x), 1.0, 3.0, maxiter=0) == 1.0


def test_same_sign_raises_resolution_error():
    f = lambda x: x * x + 1.0                # noqa: E731
    with pytest.raises(ValueError):
        optimize.brentq(f, -1.0, 1.0)
    with pytest.raises(ResolutionError, match="does not change sign"):
        util.brentq(lambda x, _: f(x), -1.0, 1.0)
    # one bad lane fails the whole solve
    with pytest.raises(ResolutionError):
        util.brentq(lambda x, lanes: np.where(lanes == 0, x, f(x)),
                    [-1.0, -1.0], [1.0, 1.0])


def test_maxiter_matches_scipy_and_raises():
    # a 21st-order root: Brent crawls, and scipy needs 94 iterations here
    f = lambda x: (x - 0.3) ** 21            # noqa: E731
    for maxiter in (50, 93, 94, 95):
        agrees(lambda: util.brentq(each(f), 0.0, 1.0, maxiter=maxiter),
               scipy_root(f, 0.0, 1.0, maxiter=maxiter))
    assert scipy_root(f, 0.0, 1.0, maxiter=93) is None
    assert scipy_root(f, 0.0, 1.0, maxiter=94) is not None
    with pytest.raises(RuntimeError):
        optimize.brentq(f, 0.0, 1.0, maxiter=93)


def test_nan_and_bad_tolerances_raise():
    with pytest.raises(ResolutionError, match="NaN"):
        util.brentq(lambda x, _: np.where(x > 0.5, np.nan, x - 0.7), 0.0, 1.0)
    with pytest.raises(ResolutionError, match="NaN"):
        util.brentq(lambda x, _: x, -1.0, 1.0, fa=np.nan)
    with pytest.raises(ValidationError):
        util.brentq(lambda x, _: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValidationError):
        util.brentq(lambda x, _: x, -1.0, 1.0, rtol=1e-16)


def test_no_brackets_make_no_call():
    def never(x, lanes):
        raise AssertionError("called")
    assert util.brentq(never, [], []).shape == (0,)
