"""Checks of the benchmark's reference computations.

Run from the repository root:  python3 -m pytest -q perfbench/test_oracles.py
"""

import math

import numpy as np

import oracles


def _zero(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def test_magnus_gives_the_free_trace():
    # the zero profile goes through the Magnus stepper, not the exact gap step
    T = 2.7
    E = np.array([-3.0, -0.4, 0.0, 1e-9, 0.8, 5.0, 40.0])
    got = oracles.magnus_trace([(T, _zero)], E)
    w = np.sqrt(np.abs(E)) * T
    want = np.where(E >= 0, 2.0 * np.cos(w), 2.0 * np.cosh(w))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_free_step_is_the_closed_form():
    E = np.array([-2.0, 0.5, 3.0])
    L = 0.7
    got = oracles.free_step(E, L)
    w = np.sqrt(0.5) * L
    assert np.allclose(got[1], [[math.cos(w), -math.sqrt(0.5) * math.sin(w)],
                                [math.sin(w) / math.sqrt(0.5), math.cos(w)]],
                       atol=1e-15)
    assert np.allclose(np.linalg.det(got), 1.0, atol=1e-14)


def test_magnus_converges_at_fourth_order():
    # a generic smooth profile; the compact bump converges faster than h^4
    def profile(s):
        s = np.asarray(s, dtype=float)
        return 2.0 * s * s + np.sin(3.0 * s)

    segs = [(1.5, profile)]
    E = np.array([0.3, 1.7, 4.2, 9.0])
    ref = oracles.magnus_trace(segs, E, h=1.0 / 2048.0)
    errs = [np.max(np.abs(oracles.magnus_trace(segs, E, h=h) - ref))
            for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 3.9 < math.log2(coarse / fine) < 4.1


def test_padded_segments_length():
    base = oracles.bump_segments(1.0, 2.0, 0.5)
    segs = oracles.padded_segments(base, 0.05, 4, 2)
    pads = [0.05 * math.sin(math.pi * j / 4.0) ** 8 for j in range(4)]
    assert math.isclose(sum(length for length, _ in segs),
                        16 * 2.0 + sum(pads), rel_tol=1e-14)


def test_jacobi_constant_potential_fills_v_minus_2_to_v_plus_2():
    for n in (1, 2, 3, 6):
        edges = oracles.jacobi_band_edges([0.4] * n)
        assert edges.shape == (n, 2)
        assert abs(edges[0, 0] - (0.4 - 2.0)) < 1e-13
        assert abs(edges[-1, 1] - (0.4 + 2.0)) < 1e-13
        # all gaps of a constant potential are closed
        assert np.max(np.abs(edges[1:, 0] - edges[:-1, 1]), initial=0.0) < 1e-13


def test_discrete_density_of_the_free_operator():
    E = np.array([-1.5, 0.0, 1.2])
    got = oracles.discrete_density([0.0], E)
    assert np.allclose(got, 1.0 / (math.pi * np.sqrt(4.0 - E * E)), rtol=1e-12)
