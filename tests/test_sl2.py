"""Upper-half-plane geometry: frozen values, oracles, and invariants.

The stacked kernels are checked against independent closed forms (the
explicit Moebius quotient, the acosh distance, the SVD, the explicit frame
and quadratic root), never one kernel against another.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cocycle_lab import sl2
from cocycle_lab.errors import DomainError, NotEllipticError


def rot(theta):
    """Rotation by theta turns, written out."""
    a = 2.0 * math.pi * theta
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def frame(re, im):
    """Closed-form upper-triangular frame sending re + im i to i."""
    s = 1.0 / math.sqrt(im)
    return np.array([[s, -re * s], [0.0, math.sqrt(im)]])


def elliptic_from(re, im, theta):
    """General elliptic matrix with fixed point re+im*i and angle theta."""
    B = frame(re, im)
    return np.linalg.inv(B) @ rot(theta) @ B


def moebius_ref(A, z):
    """(a z + b) / (c z + d), the explicit quotient."""
    return (A[0, 0] * z + A[0, 1]) / (A[1, 0] * z + A[1, 1])


def hyp_dist_ref(z, w):
    """acosh(1 + |z - w|^2 / (2 Im z Im w)); accurate for separated points."""
    return math.acosh(1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag))


def upper_root(A):
    """Root of c z^2 + (d - a) z - b = 0 in the upper half plane."""
    a, b, c, d = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    r = cmath.sqrt((d - a) ** 2 + 4.0 * b * c)
    z = (a - d + r) / (2.0 * c)
    return z if z.imag > 0.0 else (a - d - r) / (2.0 * c)


def exact_power(A, k):
    """A**k of a float matrix in exact rational arithmetic, rounded once."""
    a = [[Fraction(float(x)) for x in row] for row in A]
    P = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(k):
        P = [[P[i][0] * a[0][j] + P[i][1] * a[1][j] for j in range(2)]
             for i in range(2)]
    return np.array([[float(x) for x in row] for row in P])


# strategy: fixed points in a moderate box, angles away from {0, 1/2, 1}
h_res = st.floats(-3.0, 3.0)
h_ims = st.floats(0.05, 5.0)
angles = st.one_of(st.floats(0.02, 0.48), st.floats(0.52, 0.98))

HAND = np.array([[1.0, -1.0], [1.0, 0.0]])  # z^2 - z + 1 = 0, a sixth turn
QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestFrozenValues:
    def test_fixed_point_hand_root(self):
        # z^2 - z + 1 = 0 has upper root (1 + i sqrt 3)/2
        u = sl2.invariant_point(HAND)
        assert u.real == pytest.approx(0.5, abs=1e-15)
        assert u.imag == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_fixed_point_quarter_turn(self):
        assert abs(sl2.invariant_point(QUARTER) - 1j) < 1e-15

    def test_moebius_diag(self):
        w = sl2.moebius2(np.array([[2.0, 0.0], [0.0, 0.5]]), 1j)
        assert abs(w - 4j) < 1e-15

    def test_rotation_quarter(self):
        np.testing.assert_allclose(
            sl2.rotation2(0.25), [[0.0, -1.0], [1.0, 0.0]], atol=1e-12
        )

    def test_rotation_angle_sixth(self):
        assert sl2.rotation_angles2(HAND) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_rotation_angle_quarter(self):
        assert sl2.rotation_angles2(QUARTER) == pytest.approx(0.25, abs=1e-14)

    def test_rotation_angle_back_branch(self):
        assert sl2.rotation_angles2(rot(0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_hyp_dist_log2(self):
        assert sl2.hyp_dist2(1j, 2j) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_energy_frame_moves_i(self):
        # the energy frame diag(E^(1/4), E^(-1/4)) carries i to sqrt(E) i
        for E in (0.25, 1.0, 7.0):
            q = E ** 0.25
            w = sl2.moebius2(np.array([[q, 0.0], [0.0, 1.0 / q]]), 1j)
            assert abs(w - math.sqrt(E) * 1j) < 1e-14

    def test_conjugator_explicit(self):
        # the conjugating frame of the hand matrix, at u = (1 + i sqrt 3)/2
        B = sl2.frames2(sl2.fixed_points2(HAND))
        s = 1.0 / math.sqrt(math.sqrt(3.0) / 2.0)
        np.testing.assert_allclose(
            B, [[s, -0.5 * s], [0.0, math.sqrt(3.0) / 2.0 * s]], rtol=1e-14
        )


class TestDomainChecks:
    def test_rejects_near_parabolic(self):
        t = 2.0 - 1e-13
        # trace exactly t, still formally elliptic but inside the margin
        A = np.array([[t / 2, -1.0], [(4 - t * t) / 4 + 1e-18, t / 2]])
        with pytest.raises(NotEllipticError):
            sl2.invariant_point(A)

    def test_rejects_hyperbolic(self):
        with pytest.raises(NotEllipticError):
            sl2.invariant_point(np.array([[3.0, -1.0], [1.0, 0.0]]))

    def test_rejects_degenerate_c(self):
        # c = 0 and |tr| < 2 - margin, possible only with det drift within
        # the tolerance
        q = math.sqrt(1.0 - 1e-10)
        A = np.array([[q, 0.3], [0.0, q]])
        assert abs(sl2.tr2(A)) < 2.0 - sl2.ELLIPTIC_MARGIN
        with pytest.raises(NotEllipticError):
            sl2.invariant_point(A)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                sl2.invariant_point(np.array([[bad, -1.0], [1.0, 0.0]]))

    def test_det_drift_rejected(self):
        # nothing renormalizes: drift past the tolerance is an error, and
        # a drift within it is kept as given
        A = rot(0.1)
        with pytest.raises(DomainError):
            sl2.invariant_point(math.sqrt(1.0 + 1e-6) * A)
        drifted = math.sqrt(1.0 + 1e-10) * A
        assert sl2.invariant_point(drifted) == complex(sl2.fixed_points2(drifted))

    def test_det_rejects_far(self):
        with pytest.raises(DomainError):
            sl2.invariant_point(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_turns_canonical(self):
        # angles in turns come back in [0, 1)
        assert sl2.rotation_angles2(sl2.rotation2(1.25)) == pytest.approx(0.25)
        assert sl2.rotation_angles2(sl2.rotation2(-0.25)) == pytest.approx(0.75)

    def test_fixed_points_nan_off_elliptic(self):
        u = sl2.fixed_points2(np.array([[[3.0, -1.0], [1.0, 0.0]], HAND]))
        assert np.isnan(u[0]) and u[1] == sl2.invariant_point(HAND)


class TestProperties:
    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_is_fixed(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        u = sl2.invariant_point(A)
        assert abs(u - complex(re, im)) < 1e-9 * (1.0 + abs(u))
        assert abs(moebius_ref(A, u) - u) < 1e-9 * (1.0 + abs(u))

    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_conjugation_is_exact_rotation(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        B = sl2.frames2(sl2.fixed_points2(A))
        th = float(sl2.rotation_angles2(A))
        np.testing.assert_allclose(B @ A @ np.linalg.inv(B), rot(th), atol=5e-12)

    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_recovers_angle(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        assert sl2.rotation_angles2(A) == pytest.approx(theta, abs=1e-9)

    @given(h_res, h_ims, h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_moebius_matches_quotient(self, x1, y1, re, im, theta):
        A = elliptic_from(re, im, theta)
        z = complex(x1, y1)
        w = complex(sl2.moebius2(A, z))
        assert abs(w - moebius_ref(A, z)) < 1e-12 * (1.0 + abs(w))
        assert w.imag > 0.0

    @given(h_res, h_ims, h_res, h_ims, h_res, h_ims, angles)
    @settings(max_examples=150, deadline=None)
    def test_moebius_isometry(self, x1, y1, x2, y2, re, im, theta):
        A = elliptic_from(re, im, theta)
        z, w = complex(x1, y1), complex(x2, y2)
        assert sl2.hyp_dist2(sl2.moebius2(A, z), sl2.moebius2(A, w)) == pytest.approx(
            sl2.hyp_dist2(z, w), abs=1e-9
        )

    @given(h_res, h_ims, h_res, h_ims)
    @settings(max_examples=150, deadline=None)
    def test_hyp_dist_matches_acosh(self, x1, y1, x2, y2):
        z, w = complex(x1, y1), complex(x2, y2)
        # acosh(1 + eps) loses digits as eps -> 0; compare separated points
        assume(abs(z - w) ** 2 >= 0.02 * y1 * y2)
        assert sl2.hyp_dist2(z, w) == pytest.approx(hyp_dist_ref(z, w), rel=1e-12)

    @given(h_res, h_ims, h_res, h_ims, h_res, h_ims)
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        z, w, v = complex(x1, y1), complex(x2, y2), complex(x3, y3)
        d = sl2.hyp_dist2
        assert d(z, w) <= d(z, v) + d(v, w) + 1e-12

    @given(h_res, h_ims)
    @settings(max_examples=100, deadline=None)
    def test_frames_closed_form(self, re, im):
        u = np.complex128(complex(re, im))
        B = sl2.frames2(u)
        np.testing.assert_allclose(B, frame(re, im), rtol=1e-15, atol=1e-15)
        assert abs(moebius_ref(B, complex(u)) - 1j) < 1e-12 * (1.0 + abs(u))

    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_conjugator_norm_identity(self, re, im, theta):
        # spectral norm of the frame equals exp(d(u, i)/2); SVD as oracle
        A = elliptic_from(re, im, theta)
        u = sl2.invariant_point(A)
        svd_norm = np.linalg.svd(sl2.frames2(np.complex128(u)), compute_uv=False)[0]
        expected = math.exp(sl2.hyp_dist2(u, 1j) / 2.0)
        assert svd_norm == pytest.approx(expected, rel=1e-12)

    @given(h_res, h_ims, angles)
    @example(re=0.0, im=0.99999, theta=0.125)  # near a rotation
    @settings(max_examples=100, deadline=None)
    def test_mat2_norm_matches_svd(self, re, im, theta):
        # the largest singular value of one 2x2 matrix, by norms2
        A = elliptic_from(re, im, theta)
        svd_norm = np.linalg.svd(A, compute_uv=False)[0]
        assert sl2.norms2(A) == pytest.approx(svd_norm, rel=1e-12)

    @given(st.integers(0, 40), h_res, h_ims, angles)
    @example(k=30, re=3.0, im=0.0625, theta=0.05)  # A**30 ~ -I, |A| ~ 47
    @settings(max_examples=100, deadline=None)
    def test_power_matches_repeated_product(self, k, re, im, theta):
        # the exact product is the oracle: np.linalg.matrix_power itself is
        # up to 7e-8 off here, where A**k is small against |A| ~ 180
        A = elliptic_from(re, im, theta)
        np.testing.assert_allclose(sl2.power2(A, k), exact_power(A, k), atol=1e-9)


def random_elliptic(rng, count, im=(0.2, 3.0), angle=(0.1, 0.4)):
    return np.array([
        elliptic_from(rng.uniform(-2, 2), rng.uniform(*im), rng.uniform(*angle))
        for _ in range(count)
    ])


class TestBatchHelpers:
    def test_batch_matches_scalar(self):
        # each stacked kernel against per-matrix scalar formulas
        rng = np.random.default_rng(11)
        stack = random_elliptic(rng, 64, im=(0.1, 4.0), angle=(0.05, 0.45))
        np.testing.assert_allclose(
            sl2.fixed_points2(stack), [upper_root(m) for m in stack], atol=1e-12
        )
        np.testing.assert_allclose(
            sl2.rotation_angles2(stack),
            [math.acos(0.5 * np.trace(m)) / (2.0 * math.pi) for m in stack],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            sl2.norms2(stack), [np.linalg.svd(m, compute_uv=False)[0] for m in stack],
            rtol=1e-10,
        )

    def test_mul_inv_power(self):
        rng = np.random.default_rng(5)
        A = random_elliptic(rng, 16)
        B = A[::-1].copy()
        np.testing.assert_allclose(
            sl2.mul2(A, B), np.einsum("kij,kjl->kil", A, B), atol=1e-13
        )
        np.testing.assert_allclose(
            sl2.mul2(A, sl2.inv2(A)), np.broadcast_to(np.eye(2), A.shape), atol=1e-12
        )
        np.testing.assert_allclose(
            sl2.power2(A, 7),
            np.array([np.linalg.matrix_power(m, 7) for m in A]),
            atol=1e-10,
        )

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    @pytest.mark.parametrize("shapes", [((5,), (5,)), ((1, 7), (4, 7)),
                                        ((3, 1), (3, 6)), ((300,), (300,)),
                                        ((1, 1500), (2, 1500))])
    def test_mul_planes_has_mul2_bits(self, shapes, shift):
        # out[i, j] = A[i, 0] B[0, j] + A[i, 1] B[1, j] over broadcasting
        # (2, 2, ...) planes, on strided operands too, below and above
        # _WHOLE_PLANES: each entry has the bits of the explicit formula,
        # which mul2 also applies
        rng = np.random.default_rng(11)
        A, B = (rng.standard_normal((2, 2) + s) for s in shapes)
        if shift:
            A, B = A + shift * 1j * A[::-1], B - shift * 1j * B[:, ::-1]
        strided = np.stack([B, -B], axis=-1)[..., 0]
        out = sl2.mul_planes(A, strided,
                             np.empty((2, 2) + np.broadcast_shapes(*shapes), A.dtype))
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(
                    out[i, j], A[i, 0] * B[0, j] + A[i, 1] * B[1, j])
        np.testing.assert_array_equal(
            np.moveaxis(out, (0, 1), (-2, -1)),
            sl2.mul2(np.moveaxis(A, (0, 1), (-2, -1)), np.moveaxis(B, (0, 1), (-2, -1))))

    def test_power_of_complex_stack(self):
        rng = np.random.default_rng(9)
        A = random_elliptic(rng, 8) + 1e-3j * rng.standard_normal((8, 2, 2))
        np.testing.assert_allclose(
            sl2.power2(A, 9),
            np.array([np.linalg.matrix_power(m, 9) for m in A]),
            atol=1e-10,
        )

    def test_power_overflow_is_inf_not_nan(self):
        A = np.array([[[1e200, 0.0], [0.0, 1e-200]], [[0.5, 0.0], [0.0, 2.0]]])
        with np.errstate(over="ignore"):
            P = sl2.power2(A, 2)
        assert P[0, 0, 0] == np.inf and not np.isnan(P).any()
        np.testing.assert_array_equal(P[1], [[0.25, 0.0], [0.0, 4.0]])

    def test_moebius_and_dist_batch(self):
        rng = np.random.default_rng(3)
        A = random_elliptic(rng, 32)
        z = rng.uniform(-2, 2, 32) + 1j * rng.uniform(0.1, 3.0, 32)
        w = sl2.moebius2(A, z)
        for k in range(32):
            assert abs(w[k] - moebius_ref(A[k], z[k])) < 1e-12 * (1.0 + abs(w[k]))
        d = sl2.hyp_dist2(z, w)
        for k in range(32):
            if abs(z[k] - w[k]) ** 2 >= 0.02 * z[k].imag * w[k].imag:
                assert d[k] == pytest.approx(hyp_dist_ref(z[k], w[k]), rel=1e-12)
