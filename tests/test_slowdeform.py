"""Frame ladder: exactness on rotations, decay rates, product identities."""

import math

import numpy as np
import pytest
from scipy import stats

from cocycle_lab import sl2
from cocycle_lab.cocycle import ContinuumCocycle, DiscreteCocycle
from cocycle_lab.deform import PaddingSpec, padded_block_matrix, padded_monodromy_formula
from cocycle_lab.errors import (
    DomainError,
    NormalFormBreakdownError,
    ValidationError,
)
from cocycle_lab.potentials import cos_family, free_continuum, smooth_bump_potential
from cocycle_lab.slowdeform import (
    NormalFormLadder,
    SlowFamily,
    decay_table,
    equidistribution_ks,
    fixed_point_stability,
    frame_stage,
    minimal_n,
    padded_block_family,
    phase_proxy,
    rotation_slow_family,
    shear_rotation_family,
    slice_monodromy_family,
    slow_product,
    stage_matrix,
    stage_product,
    tilde_theta_curve,
)


def wobble_theta(t):
    return 0.2 + 0.1 * np.sin(2.0 * np.pi * np.asarray(t))


def test_rotation_family_is_a_fixed_point_of_the_ladder():
    fam = rotation_slow_family(wobble_theta)
    ladder = NormalFormLadder(fam, alpha=1.0 / 17.0, depth=3, grid=128)
    for m in (1, 2, 3):
        assert ladder.residual(m) < 1e-12
        assert np.allclose(ladder.frame(m), np.eye(2), atol=1e-10)
    # stages remain the original rotations
    assert np.allclose(ladder.stage(3), ladder.stage(0), atol=1e-10)


def test_ladder_needs_elliptic_family():
    fam = rotation_slow_family(lambda t: np.asarray(t))  # hits angle 0
    with pytest.raises(NormalFormBreakdownError):
        NormalFormLadder(fam, alpha=0.01, depth=1, grid=64)


def test_family_shape_validation():
    bad = SlowFamily(fn=lambda t: np.eye(2))
    with pytest.raises(ValidationError):
        bad(np.linspace(0, 1, 4))


def test_ellipticity_margin():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    assert fam.ellipticity_margin(grid=128) > 0.1
    degen = rotation_slow_family(lambda t: np.zeros_like(np.asarray(t)) + 1e-15)
    assert degen.ellipticity_margin(grid=16) < 1e-12


def test_residual_decays_one_order_per_stage():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    ns = [16, 32, 64, 128]
    res = {
        n: NormalFormLadder(fam, alpha=1.0 / n, depth=3, grid=192)
        for n in ns
    }
    for m in (1, 2, 3):
        vals = [res[n].residual(m) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # doubling n must gain close to m orders of two at the fast end
        rate = math.log2(vals[-2] / vals[-1])
        assert rate > m - 0.5
    # at fixed slowness, deeper stages do strictly better
    r = res[128]
    assert r.residual(3) < r.residual(2) < r.residual(1)


def test_ladder_matches_scalar_recursion():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    alpha = 1.0 / 24.0
    t0 = 0.37
    ladder = NormalFormLadder(fam, alpha=alpha, depth=3, grid=32, t0=t0)
    for m in (1, 2, 3):
        want_A = stage_matrix(fam, alpha, m, t0)
        assert np.allclose(ladder.stage(m)[0], want_A, atol=1e-10)
        want_B = frame_stage(fam, alpha, m, t0)
        assert np.allclose(ladder.frame(m)[0], want_B, atol=1e-10)


def test_stage_product_telescopes():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    alpha = 1.0 / 24.0
    t0, count, m = 0.11, 7, 2
    base = slow_product(fam, alpha, t0, count)
    staged = stage_product(fam, alpha, m, t0, count)
    B_end = frame_stage(fam, alpha, m, t0 + alpha * count)
    B_start = frame_stage(fam, alpha, m, t0)
    want = B_end @ base @ np.linalg.inv(B_start)
    assert np.allclose(staged, want, atol=1e-9)


def test_slow_product_empty_and_validation():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    assert np.allclose(slow_product(fam, 0.01, 0.3, 0), np.eye(2))
    with pytest.raises(ValidationError):
        slow_product(fam, 0.01, 0.3, -1)


def test_slow_product_keeps_determinant_drift():
    # nothing renormalizes: 200 factors of determinant 1.01^2 multiply out
    fam = SlowFamily(
        lambda t: 1.01 * sl2.rotation2(0.1 + 0.05 * np.sin(2.0 * np.pi * t))
    )
    got = slow_product(fam, 1.0 / 200, 0.0, 200)
    assert np.linalg.det(got) == pytest.approx(1.01 ** 400, rel=1e-10)


def test_padded_block_family_matches_deform():
    pot = smooth_bump_potential(period=2.0, height=1.0, zero_nbhd=0.5)
    base = ContinuumCocycle(pot)
    E, delta, N = 2.0, 0.3, 2
    fam = padded_block_family(base, E, delta, N)
    spec = PaddingSpec(delta=delta, N=N, n=3)
    for t in np.linspace(0.0, 1.0, 7):
        want = padded_block_matrix(base, E, spec, float(t))
        assert np.allclose(fam(np.array([t]))[0], want, atol=1e-12)
    # traversing the family slowly reproduces the padded monodromy
    n = 3
    got = slow_product(fam, 1.0 / (2 * n), 0.0, 2 * n)
    assert np.allclose(got, padded_monodromy_formula(base, E, spec), atol=1e-10)


def test_slice_monodromy_family_matches_cocycle():
    fam = cos_family(lam=0.3, n1=2)
    E = 0.8
    sf = slice_monodromy_family(fam, E)
    assert sf.period == pytest.approx(fam.n0)
    for t in np.linspace(0.0, 1.0, 6):
        want = DiscreteCocycle.from_family(fam, float(t)).monodromy(E)
        assert np.allclose(sf(np.array([t]))[0], want, atol=1e-12)


def test_slice_family_ladder_decay():
    fam = cos_family(lam=0.25, n1=2)
    sf = slice_monodromy_family(fam, 0.8)
    assert sf.ellipticity_margin() > 0.05
    res = []
    for n in (16, 64):
        ladder = NormalFormLadder(sf, alpha=fam.n0 / n, depth=2, grid=128)
        res.append(ladder.residual(2))
    assert res[1] < res[0] / 8.0


def test_theta_drift_scales_with_alpha():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    d1 = NormalFormLadder(fam, alpha=1.0 / 32, depth=1, grid=64).theta_drift()
    d2 = NormalFormLadder(fam, alpha=1.0 / 64, depth=1, grid=64).theta_drift()
    assert d2 < d1
    assert d1 < 0.05


def test_frame_drift_positive_for_nonconstant_family():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    ladder = NormalFormLadder(fam, alpha=1.0 / 32, depth=2, grid=64)
    assert ladder.frame_drift(1) > 0.0
    assert ladder.frame_drift(1) < 0.1


def test_winding_of_elliptic_family_is_zero():
    fam = rotation_slow_family(wobble_theta)
    ladder = NormalFormLadder(fam, alpha=1.0 / 17.0, depth=1, grid=64)
    assert ladder.winding(0) == 0


def test_tilde_theta_curve_free_potential():
    base = ContinuumCocycle(free_continuum())
    # stay inside one elliptic stretch and compare to sqrt(E)/2 winding
    e = np.linspace(1.0, 9.0, 512)
    # free monodromy trace 2 cos(sqrt(E)); elliptic except isolated points
    th = tilde_theta_curve(base, e)
    want = np.sqrt(e) / (2.0 * np.pi)  # free rotation angle in turns
    lift = th - th[0]
    assert np.allclose(lift, want - want[0], atol=1e-6)
    with pytest.raises(DomainError):
        tilde_theta_curve(base, np.array([-5.0]))


def test_phase_proxy_and_ks():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, 4000)
    assert equidistribution_ks(u) < 0.03
    assert equidistribution_ks(u * u) > 0.2
    with pytest.raises(ValidationError):
        equidistribution_ks(np.array([1.5]))
    for sample in (rng.uniform(0.0, 1.0, 250), u[:7] ** 3, np.array([0.5])):
        assert equidistribution_ks(sample) == stats.kstest(sample, "uniform").statistic
    with pytest.raises(ValidationError):
        equidistribution_ks(np.array([]))


def test_folded_free_phase_equidistributes():
    base = ContinuumCocycle(free_continuum())
    e = np.linspace(1.0, 9.0, 4096)
    th = tilde_theta_curve(base, e)
    ks = equidistribution_ks(phase_proxy(th, 48.0))
    assert ks < 0.1


def test_fixed_point_stability_bound():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = rng.uniform(-1, 1), rng.uniform(0.3, 2.5)
        theta = rng.uniform(0.05, 0.45)
        B = np.array([[1.0, -x], [0.0, y]]) / math.sqrt(y)  # sends x + iy to i
        A = np.linalg.inv(B) @ sl2.rotation2(theta) @ B
        kappa = fixed_point_stability(A)
        assert isinstance(kappa, float)
        eps = 1e-6
        X = np.array([[0.4, 0.8], [0.3, -0.4]])
        P = np.eye(2) + eps * X
        P /= math.sqrt(abs(np.linalg.det(P)))
        moved = sl2.hyp_dist2(sl2.invariant_point(P @ A), complex(x, y))
        assert moved <= 10.0 * kappa * eps


def test_fixed_point_stability_near_parabolic():
    A = sl2.rotation2(1e-5)
    # rotation about i with tiny angle: the invariant point is fine here,
    # but the conditioning threshold must reject it
    with pytest.raises(DomainError):
        fixed_point_stability(A, threshold=1e-3)


def test_minimal_n_finds_doubling():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    ref = NormalFormLadder(fam, alpha=1.0 / 64, depth=2, grid=128).residual(2)
    n, res = minimal_n(lambda n: fam, lambda n: 1.0 / n, 2, ref * 1.5,
                       n_start=8, n_cap=256, grid=128)
    assert n <= 64
    assert res < ref * 1.5
    with pytest.raises(NormalFormBreakdownError):
        minimal_n(lambda n: fam, lambda n: 1.0 / n, 1, 1e-30,
                  n_start=8, n_cap=32, grid=64)


def test_decay_table_rows():
    fam = shear_rotation_family(0.17, 0.05, 0.1)
    rows = decay_table(lambda n: fam, lambda n: 1.0 / n, [8, 16], 2, grid=64)
    assert len(rows) == 4
    assert {r["m"] for r in rows} == {1, 2}
    for r in rows:
        assert set(r) == {"m", "n", "residual", "B_drift", "theta_drift"}
        assert r["residual"] > 0.0
    by = {(r["m"], r["n"]): r["residual"] for r in rows}
    assert by[(1, 16)] < by[(1, 8)]
    assert by[(2, 16)] < by[(2, 8)]
