"""Deformation operators: padding factorizations, family rewrites."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import sl2
from cocycle_lab.cocycle import (
    ContinuumCocycle,
    DiscreteCocycle,
    band_spectrum,
    free_block,
)
from cocycle_lab.deform import (
    PaddingSpec,
    UniformPadding,
    block_trace_formula,
    crumble_circle,
    frame_data,
    half_turn_fixed_point,
    interleaved_trace,
    pad,
    padded_block_matrix,
    padded_monodromy_formula,
    padding_block,
    padding_product,
    proper_svd,
    repeat_family,
    sampling_family,
    slide_family,
    slide_slice_factors,
    twist_family,
)
from cocycle_lab.errors import DomainError, NotEllipticError, ValidationError
from cocycle_lab.potentials import (
    circle_cos,
    cos_family,
    free_discrete,
    smooth_bump_potential,
)


def bump_pot():
    return smooth_bump_potential(period=2.0, height=1.0, zero_nbhd=0.5)


def gap_propagator(E: float, length: float) -> np.ndarray:
    """Reference propagator of a zero stretch at positive energy, in the
    display form D R D^-1: the energy frame conjugates a rotation by
    sqrt(E) length radians.  Independent of the entire form in free_block.
    """
    if not E > 0.0:
        raise DomainError("gap propagator display form needs E > 0")
    q = E ** 0.25
    D = np.array([[q, 0.0], [0.0, 1.0 / q]])
    phi = math.sqrt(E) * length
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return D @ R @ np.linalg.inv(D)


def upper_frame(u: complex) -> np.ndarray:
    """Upper-triangular frame sending u to i, written out."""
    s = 1.0 / math.sqrt(u.imag)
    return np.array([[s, -u.real * s], [0.0, math.sqrt(u.imag)]])


def elliptic_energy(base, lo=0.5, hi=6.0, want=1.5):
    """First grid energy where the monodromy trace is safely elliptic."""
    for E in np.linspace(lo, hi, 141):
        if abs(base.trace(float(E))) < want:
            return float(E)
    raise AssertionError("no elliptic energy found in the probe window")


# ---------------------------------------------------------------------------
# padding: structure
# ---------------------------------------------------------------------------


def test_padding_spec_lengths():
    spec = PaddingSpec(delta=0.4, N=3, n=2)
    pads = spec.pad_lengths()
    assert pads.shape == (4,)
    assert pads[0] == 0.0
    assert pads[2] == pytest.approx(0.4)  # sin(pi/2) = 1 at j = n
    # symmetric about the fully open pad
    assert pads[1] == pytest.approx(pads[3])
    assert spec.new_period(2.0) == pytest.approx(2 * 3 * 2 * 2.0 + pads.sum())


def test_padding_spec_validation():
    with pytest.raises(ValidationError):
        PaddingSpec(delta=-0.1, N=1, n=1)
    with pytest.raises(ValidationError):
        PaddingSpec(delta=0.1, N=0, n=1)
    with pytest.raises(ValidationError):
        UniformPadding(delta=-0.1, n=1)
    with pytest.raises(ValidationError):
        UniformPadding(delta=0.1, n=0)


def test_pad_requires_zero_stretch():
    pot = bump_pot()
    stripped = type(pot)(
        period=pot.period, segments=pot.segments, bases=pot.bases, zero_nbhd=0.0
    )
    with pytest.raises(ValidationError):
        pad(stripped, PaddingSpec(delta=0.1, N=1, n=1))


def test_pad_pointwise_values():
    pot = bump_pot()
    spec = PaddingSpec(delta=0.3, N=2, n=2)
    padded = pad(pot, spec)
    pads = spec.pad_lengths()
    assert padded.period == pytest.approx(spec.new_period(pot.period))
    # walk the new period block by block: N copies of the original, then a pad
    offset = 0.0
    for j in range(2 * spec.n):
        for _ in range(spec.N):
            s = np.linspace(0.0, pot.period, 37, endpoint=False)
            assert np.allclose(padded(offset + s), pot(s), atol=1e-12)
            offset += pot.period
        if pads[j] > 0.0:
            mid = offset + 0.5 * pads[j]
            assert padded(np.array([mid]))[0] == 0.0
            offset += pads[j]
    assert offset == pytest.approx(padded.period)
    assert padded.zero_nbhd == pytest.approx(pot.zero_nbhd + pads[-1])


@pytest.mark.parametrize("spec", [PaddingSpec(delta=0.3, N=2, n=2),
                                  UniformPadding(delta=0.25, n=3)],
                         ids=["modulated", "uniform"])
def test_pad_monodromy_matches_block_product(spec):
    # the cascade's chunked block product (deform.padding_product) against
    # the engine's monodromy of the padded potential, in both layouts
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    padded = ContinuumCocycle(pad(pot, spec))
    E = 2.0
    direct = padded.monodromy(E)
    MN = sl2.power2(base.monodromy(E), spec.N)
    product, elliptic = padding_product(E, spec.pad_lengths(), MN)
    assert np.allclose(product, direct, atol=1e-9)
    blocks = [padding_block(E, L, MN) for L in spec.pad_lengths()]
    assert elliptic == all(abs(np.trace(G)) < 2.0 for G in blocks)
    if isinstance(spec, PaddingSpec):
        formula = padded_monodromy_formula(base, E, spec)
        assert np.allclose(direct, formula, atol=1e-9)


def test_pad_zero_delta_is_pure_power():
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    spec = PaddingSpec(delta=0.0, N=1, n=2)
    padded = ContinuumCocycle(pad(pot, spec))
    E = 1.7
    M = base.monodromy(E)
    assert np.allclose(padded.monodromy(E), np.linalg.matrix_power(M, 4), atol=1e-9)


def test_pad_simple_monodromy_identity():
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    delta, n = 0.25, 3
    padded = ContinuumCocycle(pad(pot, UniformPadding(delta, n)))
    E = 2.0
    M = base.monodromy(E)
    A_delta = gap_propagator(E, delta) @ M
    expected = (
        np.linalg.matrix_power(A_delta, n) @ np.linalg.matrix_power(M, n)
    )
    assert np.allclose(padded.monodromy(E), expected, atol=1e-9)


def test_gap_propagator_matches_free_block():
    for E in (0.3, 1.0, 4.7):
        for L in (0.1, 0.9, 2.3):
            assert np.allclose(
                gap_propagator(E, L), free_block(E, L), atol=1e-13
            )
    with pytest.raises(DomainError):
        gap_propagator(-1.0, 0.5)
    with pytest.raises(DomainError):
        gap_propagator(0.0, 0.5)


def test_padding_block_matches_gap_propagator():
    base = ContinuumCocycle(bump_pot())
    for E, N in ((0.7, 1), (2.0, 3), (4.4, 8)):
        MN = sl2.power2(base.monodromy(E), N)
        assert np.array_equal(padding_block(E, 0.0, MN), MN)
        for L in (0.03, 0.45, 1.2):
            want = gap_propagator(E, L) @ MN
            assert np.allclose(padding_block(E, L, MN), want, atol=1e-12)


# ---------------------------------------------------------------------------
# padding: closed forms
# ---------------------------------------------------------------------------


def test_block_trace_formula_matches_matrix():
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    E = elliptic_energy(base)
    theta, u, lam = frame_data(base, E)
    spec = PaddingSpec(delta=0.45, N=2, n=4)
    for t in np.linspace(0.0, 1.0, 9):
        G = padded_block_matrix(base, E, spec, float(t))
        want = block_trace_formula(E, theta, lam, spec, float(t))
        assert np.trace(G) == pytest.approx(want, abs=1e-10)


def test_frame_data_lambda_is_min_over_rotations():
    # lam equals the smallest norm of B R among rotations R, realized by
    # the proper SVD of the frame-times-energy-diag product
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    E = elliptic_energy(base)
    _, u, lam = frame_data(base, E)
    assert isinstance(u, complex)
    B = upper_frame(u)
    q = E ** 0.25
    _, lam_svd, _ = proper_svd(B @ np.diag([q, 1.0 / q]))
    assert lam == pytest.approx(lam_svd, rel=1e-12)


def test_frame_data_domain():
    base = ContinuumCocycle(bump_pot())
    for E in (0.0, -1.0):
        with pytest.raises(DomainError):
            frame_data(base, E)
        with pytest.raises(DomainError):
            half_turn_fixed_point(base, E, 0.35, 2)
    gap = next(float(E) for E in np.linspace(0.5, 12.0, 461)
               if abs(base.trace(float(E))) > 2.0)
    with pytest.raises(NotEllipticError):
        frame_data(base, gap)


def test_half_turn_fixed_point_matches_direct():
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    E = elliptic_energy(base)
    delta, N = 0.35, 2
    spec = PaddingSpec(delta=delta, N=N, n=2)
    G = padded_block_matrix(base, E, spec, 0.5)
    direct = sl2.invariant_point(G)
    got = half_turn_fixed_point(base, E, delta, N)
    assert got.w.real == pytest.approx(direct.real, abs=1e-9)
    assert got.w.imag == pytest.approx(direct.imag, abs=1e-9)


def test_half_turn_quadratic_is_satisfied():
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    E = elliptic_energy(base)
    got = half_turn_fixed_point(base, E, 0.35, 2)
    w2 = complex(-got.b / (2.0 * got.a), got.im_closed_form)
    assert abs(got.a * w2 * w2 + got.b * w2 + got.c) < 1e-12
    assert got.im_closed_form > 0.0


def test_padded_spectrum_stays_near_base_bands():
    # sanity: a small pad perturbs band edges only slightly
    pot = bump_pot()
    base = ContinuumCocycle(pot)
    bands = band_spectrum(base, 0.2, 4.0, grid=1024)
    spec = PaddingSpec(delta=0.02, N=1, n=1)
    padded = ContinuumCocycle(pad(pot, spec))
    for band in bands.bands:
        mid = 0.5 * (band.lo + band.hi)
        if band.width < 0.2:
            continue
        # interior of a wide base band: padded trace still elliptic nearby
        assert abs(padded.trace(mid)) <= 2.0 + 0.5


def test_proper_svd_reconstructs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.normal(size=(2, 2))
        while abs(np.linalg.det(g)) < 1e-3:
            g = rng.normal(size=(2, 2))
        Q = g / math.sqrt(abs(np.linalg.det(g)))
        if np.linalg.det(g) < 0:
            Q = Q @ np.diag([1.0, -1.0])
        R1, lam, R2 = proper_svd(Q)
        assert lam >= 1.0 - 1e-12
        assert np.linalg.det(R1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(R2) == pytest.approx(1.0, abs=1e-12)
        for R in (R1, R2):
            assert R[0, 0] == pytest.approx(R[1, 1], abs=1e-12)
            assert R[0, 1] == pytest.approx(-R[1, 0], abs=1e-12)
        got = R1 @ np.diag([lam, 1.0 / lam]) @ R2
        assert np.allclose(got, Q, atol=1e-12)


# ---------------------------------------------------------------------------
# discrete family operators
# ---------------------------------------------------------------------------


def test_repeat_family_tiles_values():
    fam = cos_family(lam=0.4, n1=2)
    rep = repeat_family(fam, 3)
    assert rep.n1 == 6
    t = 0.37
    child = rep.slice(t).values
    parent = fam.slice(t).values
    assert child == parent * 3


def test_repeat_family_monodromy_is_power():
    fam = cos_family(lam=0.4, n1=2)
    rep = repeat_family(fam, 3)
    E, t = 0.9, 0.21
    M = DiscreteCocycle.from_family(fam, t).monodromy(E)
    Mr = DiscreteCocycle.from_family(rep, t).monodromy(E)
    assert np.allclose(Mr, np.linalg.matrix_power(M, 3), atol=1e-12)


def test_twist_blocks_read_shifted_parent():
    fam = cos_family(lam=0.35, n1=2)
    n = 4
    tw = twist_family(fam, n)
    assert tw.n1 == 8
    t = 0.13
    child = np.array(tw.slice(t).values)
    for k in range(n):
        block = child[k * fam.n1:(k + 1) * fam.n1]
        expect = np.array(fam.slice(t + fam.n0 * k / n).values)
        assert np.allclose(block, expect, atol=0.0)


def test_twist_monodromy_factorizes():
    fam = cos_family(lam=0.35, n1=2)
    n = 3
    tw = twist_family(fam, n)
    E, t = 1.1, 0.42
    direct = DiscreteCocycle.from_family(tw, t).monodromy(E)
    prod = np.eye(2)
    for k in range(n):
        Ak = DiscreteCocycle.from_family(fam, t + fam.n0 * k / n).monodromy(E)
        prod = Ak @ prod
    assert np.allclose(direct, prod, atol=1e-12)


def test_slide_needs_room_for_bump():
    with pytest.raises(ValidationError):
        slide_family(free_discrete(), delta=0.1, n=1)


def test_slide_plateau_slice_identity():
    fam = cos_family(lam=0.3, n1=2)
    delta, n = 0.07, 2
    sl = slide_family(fam, delta, n)
    assert sl.n1 == 6
    assert sl.n0 == pytest.approx(2 * n * fam.n0)
    # pick t so that t mod 2n*n0 lands on the bump plateau around n*n0
    t = n * fam.n0 + 0.5
    t_plain, t_slid = slide_slice_factors(fam, delta, n, t)
    assert t_slid == pytest.approx(t + delta)  # plateau gives the full shift
    E = 0.8
    direct = DiscreteCocycle.from_family(sl, t).monodromy(E)
    A1 = DiscreteCocycle.from_family(fam, t_plain).monodromy(E)
    A2 = DiscreteCocycle.from_family(fam, t_slid).monodromy(E)
    assert np.allclose(direct, A2 @ A1 @ A1, atol=1e-12)


def test_slide_outside_support_is_plain_triple():
    fam = cos_family(lam=0.3, n1=2)
    delta, n = 0.07, 2
    sl = slide_family(fam, delta, n)
    t = 0.1  # t mod 2n*n0 far below the bump support around n*n0
    _, t_slid = slide_slice_factors(fam, delta, n, t)
    assert t_slid == t
    E = 0.8
    direct = DiscreteCocycle.from_family(sl, t).monodromy(E)
    A1 = DiscreteCocycle.from_family(fam, t).monodromy(E)
    assert np.allclose(direct, np.linalg.matrix_power(A1, 3), atol=1e-12)


def test_slide_trace_formula():
    fam = cos_family(lam=0.3, n1=2)
    delta, n = 0.07, 2
    t = n * fam.n0 + 0.5
    E = 0.8
    reps = 3
    A1 = DiscreteCocycle.from_family(fam, t).monodromy(E)
    A2 = DiscreteCocycle.from_family(fam, t + delta).monodromy(E)
    u1, u2 = sl2.invariant_point(A1), sl2.invariant_point(A2)
    th1 = float(sl2.rotation_angles2(A1, u1))
    th2 = float(sl2.rotation_angles2(A2, u2))
    dist = float(sl2.hyp_dist2(u1, u2))
    direct = np.trace(
        np.linalg.matrix_power(A2, reps) @ np.linalg.matrix_power(A1, 2 * reps)
    )
    want = interleaved_trace(th1, 2 * reps, th2, reps, dist)
    assert direct == pytest.approx(want, abs=1e-10)


def test_interleaved_trace_same_frame_reduces_to_rotation():
    # zero distance: the product is a single rotation by the angle sum
    got = interleaved_trace(0.13, 2, 0.31, 5, 0.0)
    assert got == pytest.approx(2.0 * math.cos(2.0 * math.pi * (0.26 + 1.55)))


@settings(max_examples=40, deadline=None)
@given(
    th1=st.floats(0.01, 0.49),
    th2=st.floats(0.01, 0.49),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    x1=st.floats(-1.0, 1.0),
    y1=st.floats(0.2, 3.0),
    x2=st.floats(-1.0, 1.0),
    y2=st.floats(0.2, 3.0),
)
def test_interleaved_trace_random_frames(th1, th2, m1, m2, x1, y1, x2, y2):
    u1, u2 = complex(x1, y1), complex(x2, y2)
    B1, B2 = upper_frame(u1), upper_frame(u2)
    R1 = sl2.rotation2(m1 * th1)
    R2 = sl2.rotation2(m2 * th2)
    direct = np.trace(
        np.linalg.inv(B2) @ R2 @ B2 @ np.linalg.inv(B1) @ R1 @ B1
    )
    want = interleaved_trace(th1, m1, th2, m2, float(sl2.hyp_dist2(u1, u2)))
    assert direct == pytest.approx(want, abs=1e-9)


def test_sampling_family_shears_parameter():
    fam = cos_family(lam=0.3, n1=2)
    samp = sampling_family(fam, Fraction(1, 2))
    t = 0.4
    child = samp.slice(t).values
    tt = np.full(2, t)
    jj = np.arange(2.0)
    expect = fam.expr(tt - jj * 0.5, jj)
    assert np.allclose(child, expect, atol=0.0)
    samp.check_periodicity()


def test_sampling_family_rejects_bad_step():
    fam = cos_family(lam=0.3, n1=2)
    with pytest.raises(ValidationError):
        sampling_family(fam, Fraction(1, 3))
    stripped = type(fam)(n0=fam.n0, n1=fam.n1, expr=fam.expr, n0_exact=None)
    with pytest.raises(ValidationError):
        sampling_family(stripped, Fraction(1, 2))


def test_crumble_steps_identity():
    circ = circle_cos(period=2, amp=0.4)
    n = 3
    cr = crumble_circle(circ, n)
    assert cr.period == 3 * n * circ.period
    # first stretch: the crumbled circle reads the parent at speed (n+1)/n
    count = n * circ.period
    t = 0.25
    got = cr(t + np.arange(count, dtype=float))
    want = circ((n + 1) * (t + np.arange(count)) / n)
    assert np.allclose(got, want, atol=1e-12)


def test_crumble_second_stretch_speed():
    circ = circle_cos(period=2, amp=0.4)
    n = 3
    cr = crumble_circle(circ, n)
    nN = n * circ.period
    # second stretch covers the remaining 2n periods at speed (2n+1)/2n
    for s in np.linspace(0.0, 2 * nN - 0.5, 7):
        x = nN + s
        want = circ(np.array([(n + 1) * nN / n + (2 * n + 1) * s / (2 * n)]))[0]
        assert cr(np.array([x]))[0] == pytest.approx(want, abs=1e-12)


def test_crumble_validation():
    with pytest.raises(ValidationError):
        crumble_circle(circle_cos(), 0)
