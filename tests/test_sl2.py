"""Upper-half-plane geometry: frozen values, oracles, and invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocycle_lab import sl2
from cocycle_lab.errors import DomainError, NotEllipticError
from cocycle_lab.sl2 import (
    HPoint,
    Mat2,
    Turns,
    conjugator,
    energy_diag,
    fixed_point,
    hyp_dist,
    moebius,
    rotation,
    rotation_angle,
)


def elliptic_from(re, im, theta):
    """General elliptic matrix with fixed point re+im*i and angle theta."""
    B = sl2.frame_for_point(HPoint(re, im))
    return B.inv() @ rotation(theta) @ B


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


class TestFrozenValues:
    def test_fixed_point_hand_root(self):
        # z^2 - z + 1 = 0 has upper root (1 + i sqrt 3)/2
        u = fixed_point(Mat2(1.0, -1.0, 1.0, 0.0))
        assert u.re == pytest.approx(0.5, abs=1e-15)
        assert u.im == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_fixed_point_quarter_turn(self):
        u = fixed_point(Mat2(0.0, -1.0, 1.0, 0.0))
        assert abs(u.z - 1j) < 1e-15

    def test_moebius_diag(self):
        w = moebius(Mat2(2.0, 0.0, 0.0, 0.5), 1j)
        assert abs(w.z - 4j) < 1e-15

    def test_rotation_quarter(self):
        np.testing.assert_allclose(
            rotation(0.25).to_array(), [[0.0, -1.0], [1.0, 0.0]], atol=1e-12
        )

    def test_rotation_angle_sixth(self):
        assert rotation_angle(Mat2(1.0, -1.0, 1.0, 0.0)).value == pytest.approx(
            1.0 / 6.0, abs=1e-14
        )

    def test_rotation_angle_quarter(self):
        assert rotation_angle(Mat2(0.0, -1.0, 1.0, 0.0)).value == pytest.approx(
            0.25, abs=1e-14
        )

    def test_rotation_angle_back_branch(self):
        assert rotation_angle(rotation(0.7)).value == pytest.approx(0.7, abs=1e-12)

    def test_hyp_dist_log2(self):
        assert hyp_dist(1j, 2j) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_energy_diag(self):
        np.testing.assert_allclose(
            energy_diag(16.0).to_array(), [[2.0, 0.0], [0.0, 0.5]], rtol=1e-15
        )

    def test_energy_diag_moves_i(self):
        for E in (0.25, 1.0, 7.0):
            w = moebius(energy_diag(E), 1j)
            assert abs(w.z - math.sqrt(E) * 1j) < 1e-14

    def test_conjugator_explicit(self):
        B = conjugator(Mat2(1.0, -1.0, 1.0, 0.0))
        s = 1.0 / math.sqrt(math.sqrt(3.0) / 2.0)
        np.testing.assert_allclose(
            B.to_array(),
            [[s, -0.5 * s], [0.0, math.sqrt(3.0) / 2.0 * s]],
            rtol=1e-14,
        )


class TestDomainChecks:
    def test_rejects_near_parabolic(self):
        t = 2.0 - 1e-13
        # trace exactly t, still formally elliptic but inside the margin
        A = Mat2(t / 2, -1.0, (4 - t * t) / 4 + 1e-18, t / 2)
        with pytest.raises(NotEllipticError):
            fixed_point(A)

    def test_rejects_hyperbolic(self):
        with pytest.raises(NotEllipticError):
            fixed_point(Mat2(3.0, -1.0, 1.0, 0.0))

    def test_moebius_lower_half(self):
        with pytest.raises(DomainError):
            moebius(Mat2.identity(), -1j)

    def test_hpoint_im_positive(self):
        with pytest.raises(DomainError):
            HPoint(0.0, 0.0)

    def test_energy_diag_domain(self):
        with pytest.raises(DomainError):
            energy_diag(-1.0)

    def test_det_drift_rejected(self):
        # nothing renormalizes: drift past the tolerance is an error, and
        # entries within it are kept as given
        with pytest.raises(DomainError):
            Mat2(1.0 + 1e-6, 0.0, 0.0, 1.0)
        assert Mat2(1.0 + 1e-10, 0.0, 0.0, 1.0).a == 1.0 + 1e-10

    def test_det_rejects_far(self):
        with pytest.raises(DomainError):
            Mat2(2.0, 0.0, 0.0, 1.0)

    def test_turns_canonical(self):
        assert Turns(1.25).value == pytest.approx(0.25)
        assert Turns(-0.25).value == pytest.approx(0.75)


class TestProperties:
    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_is_fixed(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        u = fixed_point(A)
        assert abs(moebius(A, u).z - u.z) < 1e-9 * (1.0 + abs(u.z))

    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_conjugation_is_exact_rotation(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        B = conjugator(A)
        M = (B @ A @ B.inv()).to_array()
        th = rotation_angle(A)
        np.testing.assert_allclose(M, rotation(th).to_array(), atol=5e-12)

    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_recovers_angle(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        assert rotation_angle(A).value == pytest.approx(theta, abs=1e-9)

    @given(h_res, h_ims, h_res, h_ims, h_res, h_ims, angles)
    @settings(max_examples=150, deadline=None)
    def test_moebius_isometry(self, x1, y1, x2, y2, re, im, theta):
        A = elliptic_from(re, im, theta)
        z, w = HPoint(x1, y1), HPoint(x2, y2)
        assert hyp_dist(moebius(A, z), moebius(A, w)) == pytest.approx(
            hyp_dist(z, w), abs=1e-9
        )

    @given(h_res, h_ims, h_res, h_ims, h_res, h_ims)
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        z, w, v = HPoint(x1, y1), HPoint(x2, y2), HPoint(x3, y3)
        assert hyp_dist(z, w) <= hyp_dist(z, v) + hyp_dist(v, w) + 1e-12

    @given(h_res, h_ims, angles)
    @settings(max_examples=200, deadline=None)
    def test_conjugator_norm_identity(self, re, im, theta):
        # spectral norm of the frame equals exp(d(u, i)/2); SVD as oracle
        A = elliptic_from(re, im, theta)
        B = conjugator(A)
        svd_norm = np.linalg.svd(B.to_array(), compute_uv=False)[0]
        expected = math.exp(hyp_dist(fixed_point(A), 1j) / 2.0)
        assert svd_norm == pytest.approx(expected, rel=1e-12)

    @given(h_res, h_ims, angles)
    @example(re=0.0, im=0.99999, theta=0.125)  # near a rotation
    @settings(max_examples=100, deadline=None)
    def test_mat2_norm_matches_svd(self, re, im, theta):
        A = elliptic_from(re, im, theta)
        svd_norm = np.linalg.svd(A.to_array(), compute_uv=False)[0]
        assert A.norm() == pytest.approx(svd_norm, rel=1e-12)

    @given(st.integers(0, 40), h_res, h_ims, angles)
    @example(k=30, re=3.0, im=0.0625, theta=0.05)  # A**30 ~ -I, |A| ~ 47
    @settings(max_examples=100, deadline=None)
    def test_power_matches_repeated_product(self, k, re, im, theta):
        # the exact product is the oracle: np.linalg.matrix_power itself is
        # up to 7e-8 off here, where A**k is small against |A| ~ 180
        A = elliptic_from(re, im, theta).to_array()
        np.testing.assert_allclose(sl2.power2(A, k), exact_power(A, k), atol=1e-9)


class TestBatchHelpers:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        mats, fps, angs = [], [], []
        for _ in range(64):
            A = elliptic_from(
                rng.uniform(-2, 2), rng.uniform(0.1, 4.0), rng.uniform(0.05, 0.45)
            )
            mats.append(A.to_array())
            fps.append(fixed_point(A).z)
            angs.append(rotation_angle(A).value)
        stack = np.array(mats)
        np.testing.assert_allclose(sl2.fixed_points2(stack), np.array(fps), atol=1e-12)
        np.testing.assert_allclose(
            sl2.rotation_angles2(stack), np.array(angs), atol=1e-12
        )
        np.testing.assert_allclose(
            sl2.norms2(stack), [np.linalg.svd(m, compute_uv=False)[0] for m in mats],
            rtol=1e-10,
        )

    def test_mul_inv_power(self):
        rng = np.random.default_rng(5)
        A = np.array(
            [
                elliptic_from(
                    rng.uniform(-2, 2), rng.uniform(0.2, 3.0), rng.uniform(0.1, 0.4)
                ).to_array()
                for _ in range(16)
            ]
        )
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

    def test_power_of_complex_stack(self):
        rng = np.random.default_rng(9)
        A = np.array(
            [
                elliptic_from(
                    rng.uniform(-2, 2), rng.uniform(0.2, 3.0), rng.uniform(0.1, 0.4)
                ).to_array()
                for _ in range(8)
            ]
        ) + 1e-3j * rng.standard_normal((8, 2, 2))
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
        A = np.array(
            [
                elliptic_from(
                    rng.uniform(-2, 2), rng.uniform(0.2, 3.0), rng.uniform(0.1, 0.4)
                ).to_array()
                for _ in range(32)
            ]
        )
        z = rng.uniform(-2, 2, 32) + 1j * rng.uniform(0.1, 3.0, 32)
        w = sl2.moebius2(A, z)
        for k in range(32):
            wk = moebius(Mat2.from_array(A[k]), complex(z[k]))
            assert abs(w[k] - wk.z) < 1e-12
        d = sl2.hyp_dist2(z, w)
        for k in range(32):
            assert d[k] == pytest.approx(hyp_dist(complex(z[k]), complex(w[k])), abs=1e-12)
