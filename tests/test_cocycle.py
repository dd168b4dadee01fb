"""Transfer matrices, band spectra, ids, Lyapunov, growth, Bloch machinery.

Expected values come from independent routes: closed forms for the free
operator, exact algebra for small discrete periods, truncated
self-adjoint matrices for state counting, and brute-force minimax
searches for the growth functional.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal, expm

from cocycle_lab import cocycle, deform, sl2, util
from cocycle_lab.cli import load_descriptor
from cocycle_lab.cocycle import (
    Band,
    BandSet,
    BlochWave,
    ContinuumCocycle,
    DiscreteCocycle,
    band_norm_integral,
    band_spectrum,
    bloch_pair,
    density,
    discrete_band_spectrum,
    free_block,
    growth_value,
    growth_values,
    ids,
    lyapunov,
    spectral_parseval,
    uniformness_check,
)
from cocycle_lab.errors import (
    IntegrationFailureError,
    NotEllipticError,
    ResolutionError,
    ValidationError,
)
from cocycle_lab.expr import Bump, Const
from cocycle_lab.potentials import (
    ContinuumPotential,
    DiscretePotential,
    Piece,
    alternating,
    cos_family,
    cosine_well_potential,
    free_continuum,
    free_discrete,
    smooth_bump_potential,
)

from resonance import resonance_gap


def free_cocycle(T=2.0):
    return ContinuumCocycle(free_continuum(T))


def alt_cocycle(lam=0.5):
    return DiscreteCocycle(alternating(lam).slice(0.0))


class TestFreeBlock:
    def test_positive_energy_closed_form(self):
        E, L = 2.3, 1.7
        w = math.sqrt(E)
        want = np.array([[math.cos(w * L), -w * math.sin(w * L)],
                         [math.sin(w * L) / w, math.cos(w * L)]])
        got = free_block(E, L)
        assert np.allclose(got, want, atol=1e-14)

    def test_negative_energy_closed_form(self):
        E, L = -1.9, 0.8
        w = math.sqrt(-E)
        want = np.array([[math.cosh(w * L), w * math.sinh(w * L)],
                         [math.sinh(w * L) / w, math.cosh(w * L)]])
        assert np.allclose(free_block(E, L), want, atol=1e-14)

    def test_zero_energy_shear(self):
        assert np.allclose(free_block(0.0, 1.3), [[1.0, 0.0], [1.3, 1.0]])

    def test_entire_across_zero(self):
        # the two closed-form branches and the series agree near E = 0
        L = 1.1
        for E in (-1e-7, -1e-12, 0.0, 1e-12, 1e-7):
            got = free_block(E, L)
            ref = free_block(E + 0j, L).real
            assert np.allclose(got, ref, atol=1e-12)

    def test_complex_step_derivative_matches(self):
        # d/dE of the (1,0) entry: sin(wL)/w has a clean closed derivative
        E, L = 1.7, 0.9
        h = 1e-100
        blk = free_block(E + 1j * h, L)
        d10 = blk[1, 0].imag / h
        w = math.sqrt(E)
        want = (L * math.cos(w * L) / w - math.sin(w * L) / w ** 2) / (2 * w)
        assert d10 == pytest.approx(want, rel=1e-12)

    def test_group_property(self):
        E = 0.7
        a = free_block(E, 0.6) @ free_block(E, 0.9)
        assert np.allclose(a, free_block(E, 1.5), atol=1e-14)

    def test_array_of_lengths_matches_scalar_calls(self):
        lengths = np.array([0.0, 0.05, 0.4, 1.3, 2.9])
        for E in (np.array([-2.0, 0.0, 0.7, 9.5]), 1.3, np.array([0.4 + 1e-3j])):
            got = free_block(np.asarray(E)[..., None], lengths)
            want = np.stack([free_block(E, float(L)) for L in lengths], axis=-3)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)


class TestContinuumTransfer:
    def test_free_monodromy_trace(self):
        sysm = free_cocycle(2.0)
        E = np.array([0.5, 1.0, 3.7])
        assert np.allclose(sysm.trace(E), 2 * np.cos(np.sqrt(E) * 2.0), atol=1e-13)

    def test_piece_against_direct_integration(self):
        pot = cosine_well_potential(period=3.0, height=2.0, zero_nbhd=1.0)
        sysm = ContinuumCocycle(pot)
        E = 1.3

        def rhs(s, y):
            v = float(pot(np.array([s]))[0])
            return [(v - E) * y[2], (v - E) * y[3], y[0], y[1]]

        sol = solve_ivp(rhs, (0.0, 3.0), [1.0, 0.0, 0.0, 1.0], rtol=1e-11,
                        atol=1e-13, method="RK45", dense_output=True)
        want = sol.y[:, -1].reshape(2, 2)
        got = sysm.monodromy(E)
        assert np.allclose(got, want, atol=1e-8)

    def test_prefix_matches_direct_integration_midpoint(self):
        pot = smooth_bump_potential(period=2.0, height=1.0, zero_nbhd=0.5)
        sysm = ContinuumCocycle(pot)
        E = 0.9
        t = 0.83

        def rhs(s, y):
            v = float(pot(np.array([s]))[0])
            return [(v - E) * y[2], (v - E) * y[3], y[0], y[1]]

        sol = solve_ivp(rhs, (0.0, t), [1.0, 0.0, 0.0, 1.0], rtol=1e-11,
                        atol=1e-13, method="RK45")
        want = sol.y[:, -1].reshape(2, 2)
        assert np.allclose(sysm.prefix(E, t), want, atol=1e-8)

    def test_transfer_composition(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        E = 2.1
        t0, t1, t2 = 0.4, 1.9, 5.3
        a01 = sysm.transfer(E, t0, t1)
        a12 = sysm.transfer(E, t1, t2)
        a02 = sysm.transfer(E, t0, t2)
        assert np.allclose(a12 @ a01, a02, atol=1e-9)

    def test_transfer_periodicity(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        E = 1.1
        a = sysm.transfer(E, 0.7, 1.9)
        b = sysm.transfer(E, 0.7 + 3.0, 1.9 + 3.0)
        assert np.allclose(a, b, atol=1e-9)

    def test_monodromy_conjugation_invariance(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        E = np.array([0.3, 1.7])
        t0 = sl2.tr2(sysm.monodromy(E, 0.0))
        t1 = sl2.tr2(sysm.monodromy(E, 1.234))
        assert np.allclose(t0, t1, atol=1e-9)

    def test_determinant_one(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        E = np.linspace(-1.0, 4.0, 17)
        M = sysm.monodromy(E)
        assert np.allclose(sl2.det2(M), 1.0, atol=1e-10)

    def test_trace_derivative_against_finite_difference(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        for E in (0.5, 2.2):
            h = 1e-6
            fd = (sysm.trace(E + h) - sysm.trace(E - h)) / (2 * h)
            cs = sysm.trace_derivative(E)
            assert cs == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_prefix_grid_matches_prefix(self):
        sysm = ContinuumCocycle(smooth_bump_potential())
        E = np.array([0.8, 1.9])
        ts = np.array([0.0, 0.4, 1.1, 2.0, 3.3])
        grid = sysm.prefix_grid(E, ts)
        for i, t in enumerate(ts):
            assert np.allclose(grid[:, i], sysm.prefix(E, float(t)), atol=1e-10)

    def test_prefix_many_periods_hyperbolic(self):
        # entries grow to ~1e8 and beyond, where ad - bc is rounding noise;
        # the direct period-by-period product is the reference
        sysm = ContinuumCocycle(smooth_bump_potential(2, 1, 0.5))
        for E, t in ((-1.0, 16.0), (-10.0, 8.0), (-1.0, 23.3)):
            k = int(t // sysm.period)
            M = sysm.monodromy(E)
            want = sysm.prefix(E, t - k * sysm.period)
            for _ in range(k):
                want = want @ M
            got = sysm.prefix(E, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def dop853_monodromy(fn, length, E):
    """Monodromy of u'' = (fn(s) - E) u over [0, length] by scipy's DOP853
    (rtol 1e-14, which scipy raises to 100 eps), an oracle independent of
    the Magnus engine; E may be complex.  At rtol 1e-12 the oracle itself was 1.1e-9 off the trace at
    the first @example of test_trace_matches_dop853, where rtol 1e-14 puts
    it 7e-12 from the engine."""
    E = np.atleast_1d(np.asarray(E))
    K = E.shape[0]

    def rhs(s, y):
        A = y.reshape(K, 2, 2)
        v = float(fn(np.array([s]))[0])
        out = np.empty_like(A)
        out[:, 0, :] = (v - E)[:, None] * A[:, 1, :]
        out[:, 1, :] = A[:, 0, :]
        return out.ravel()

    y0 = np.broadcast_to(np.eye(2, dtype=E.dtype), (K, 2, 2)).ravel()
    sol = solve_ivp(rhs, (0.0, length), y0, method="DOP853", rtol=1e-14,
                    atol=1e-14)
    assert sol.success
    return sol.y[:, -1].reshape(K, 2, 2)


def padded_bump_dop853(E):
    """The PaddingSpec(0.05, 4, 2) padding of the default smooth bump (35
    segments, period 32.06) and its monodromy: pieces by DOP853, gaps by
    expm."""
    base = smooth_bump_potential()
    pot = deform.pad(base, deform.PaddingSpec(0.05, 4, 2))
    bump = dop853_monodromy(base.bases["bump"], 1.5, E)
    want = np.broadcast_to(np.eye(2), (E.shape[0], 2, 2))
    for seg in pot.segments:
        if isinstance(seg, Piece):
            blk = bump
        else:
            blk = np.stack([expm(np.array([[0.0, -e], [1.0, 0.0]]) * seg.length)
                            for e in E])
        want = blk @ want
    return pot, want


def rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


class TestMagnusEngine:
    """The Gauss-Magnus piece propagators against independent references."""

    # worst relative errors seen over 40 random draws were 1.0e-11 (bump)
    # and 2.4e-10 (well) for the trace, 4.3e-11 for its derivative
    @given(st.sampled_from(["bump", "well"]), st.floats(1.5, 3.5),
           st.floats(0.2, 3.0), st.floats(0.2, 0.6),
           st.one_of(st.floats(-5.0, 5.0), st.floats(5.0, 1000.0)))
    @example(kind="well", period=1.5, height=2.658711046279549,
             zero_frac=0.304229961031083, E=302.3679301872305)
    @settings(max_examples=12, deadline=None)
    def test_trace_matches_dop853(self, kind, period, height, zero_frac, E):
        make = smooth_bump_potential if kind == "bump" else cosine_well_potential
        pot = make(period, height, zero_frac * period)
        sysm = ContinuumCocycle(pot)
        want = np.trace(dop853_monodromy(pot, period, E)[0])
        assert rel_err(sysm.trace(E), want) <= 1e-9
        # the complex step of the oracle differentiates its own discrete map
        h = 1e-100
        dwant = np.trace(dop853_monodromy(pot, period, E + 1j * h)[0]).imag / h
        assert rel_err(sysm.trace_derivative(E), dwant) <= 1e-9

    def test_padded_bump_matches_dop853(self):
        E = np.array([-1.0, 0.3, 2.7, 11.0, 40.0])
        pot, want = padded_bump_dop853(E)
        got = ContinuumCocycle(pot).monodromy(E)
        # worst seen: 8.2e-10
        assert rel_err(sl2.tr2(got), sl2.tr2(want)) <= 1e-8

    def test_sixth_order_convergence(self, monkeypatch):
        # an infinite tolerance keeps the first count, length x per_unit
        # steps; halving the step divides the error by 2^6 (63.1 and 64.8
        # measured; the fourth-order steps gave 16.0 and 16.0)
        pot = cosine_well_potential()
        E = np.array([-1.5, 0.4, 3.0, 12.0])
        ref = ContinuumCocycle(pot).monodromy(E)
        monkeypatch.setattr(cocycle, "_TOL", math.inf)
        errs = []
        for per_unit in (8, 16, 32):
            monkeypatch.setattr(cocycle, "_MIN_STEPS_PER_UNIT", per_unit)
            errs.append(rel_err(ContinuumCocycle(pot).monodromy(E), ref))
        for coarse, fine in zip(errs, errs[1:]):
            assert 48.0 <= coarse / fine <= 80.0

    @pytest.mark.parametrize("kind", ["bump", "well", "padded-bump"])
    def test_monodromy_accuracy_contract(self, kind):
        # the engine's stated accuracy below E = 50: 1e-11 relative to
        # max(1, |M|) against DOP853; worst measured 2.9e-13 (bump),
        # 4.6e-12 (well) and 2.2e-12 (padded bump), against 7.7e-11,
        # 2.9e-11 and 3.2e-10 for the fourth-order steps
        E = np.array([-1.5, -0.3, 0.4, 1.1, 2.7, 5.0, 8.3, 12.0, 20.0, 31.0,
                      42.0, 50.0])
        if kind == "padded-bump":
            pot, want = padded_bump_dop853(E)
        else:
            pot = cosine_well_potential() if kind == "well" else smooth_bump_potential()
            want = dop853_monodromy(pot, pot.period, E)
        got = ContinuumCocycle(pot).monodromy(E)
        size = np.maximum(1.0, np.max(np.abs(want), axis=(1, 2)))
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-11 * size)

    def test_batched_monodromy_equals_single_energies(self):
        # 300 energies span two batches; every step is elementwise in E
        sysm = ContinuumCocycle(deform.pad(cosine_well_potential(),
                                           deform.PaddingSpec(0.1, 2, 2)))
        E = np.linspace(-2.0, 30.0, 300)
        batch = sysm.monodromy(E)
        single = np.stack([sysm.monodromy(e) for e in E])
        np.testing.assert_array_equal(batch, single)
        inside = E[np.abs(sl2.tr2(batch)) < 1.9][::25]
        assert inside.size >= 3
        np.testing.assert_array_equal(
            density(sysm, inside), [density(sysm, e) for e in inside])

    def test_narrow_bump_gets_more_steps_per_unit(self):
        v0 = ContinuumCocycle(smooth_bump_potential(2.0, 1.0, 0.5))
        wide = v0._segments[0][2]
        narrow = cocycle._Piece(Bump(center=0.5, width=0.05), 0.0, 1.0, 1.0)
        assert narrow.steps / narrow.length > wide.steps / wide.length

    def test_non_finite_potential_raises(self):
        pot = ContinuumPotential(period=1.0, segments=(Piece("v", 1.0),),
                                 bases={"v": Const(math.nan)})
        with pytest.raises(IntegrationFailureError):
            ContinuumCocycle(pot).trace(1.0)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(cocycle, "_MAX_STEPS", 64)
        with pytest.raises(IntegrationFailureError):
            cocycle._Piece(Bump(center=0.5, width=0.05), 0.0, 1.0, 1.0)


def reference_cos_sinc(x):
    """cos(sqrt(x)) and sin(sqrt(x))/sqrt(x) by libm, as computed before the
    plane kernel, with fresh arrays for every intermediate.  The kernel keeps
    these bits for complex x and for real |x| > cocycle._SERIES_RADIUS."""
    if np.iscomplexobj(x):
        w = np.sqrt(x.astype(complex))
        small = np.abs(x) < cocycle._SMALL_X
        wsafe = np.where(small, 1.0, w)
        c = np.where(small, 1.0 - x / 2.0 + x * x / 24.0, np.cos(wsafe))
        s = np.where(small, 1.0 - x / 6.0 + x * x / 120.0, np.sin(wsafe) / wsafe)
        return c, s
    x = x.astype(float)
    c, s = np.empty_like(x), np.empty_like(x)
    pos, neg = x > cocycle._SMALL_X, x < -cocycle._SMALL_X
    mid = ~(pos | neg)
    wp, wn, xm = np.sqrt(x[pos]), np.sqrt(-x[neg]), x[mid]
    c[pos], s[pos] = np.cos(wp), np.sin(wp) / wp
    c[neg], s[neg] = np.cosh(wn), np.sinh(wn) / wn
    c[mid] = 1.0 - xm / 2.0 + xm * xm / 24.0
    s[mid] = 1.0 - xm / 6.0 + xm * xm / 120.0
    return c, s


class TestStepCoefs:
    """cocycle._step_coefs against the sixth-order Magnus exponent formed
    from explicit 2 x 2 commutators."""

    @staticmethod
    def exponent(h, v, E):
        """Omega of Blanes, Casas & Ros (BIT 40, 2000) for dA/ds =
        [[0, V - E], [1, 0]] A, V sampled v = (v1, v2, v3) at the nodes."""
        def gen(vk):
            out = np.zeros(np.shape(vk) + (2, 2))
            out[..., 0, 1] = vk - E
            out[..., 1, 0] = 1.0
            return out

        def comm(X, Y):
            return np.matmul(X, Y) - np.matmul(Y, X)

        A1, A2, A3 = (gen(vk) for vk in v)
        h = np.asarray(h)[..., None, None]
        al1 = h * A2
        al2 = math.sqrt(15.0) / 3.0 * h * (A3 - A1)
        al3 = 10.0 / 3.0 * h * (A3 - 2.0 * A2 + A1)
        C1 = comm(al1, al2)
        C2 = -comm(al1, 2.0 * al3 + C1) / 60.0
        return al1 + al3 / 12.0 + comm(-20.0 * al1 - al3 + C1, al2 + C2) / 240.0

    @pytest.mark.parametrize("E", [-7.0, 0.0, 2.5, 60.0])
    def test_matches_commutators(self, E):
        # worst measured 4.5e-16 relative
        rng = np.random.default_rng(11)
        h = rng.uniform(1e-3, 0.5, 500)
        v = rng.uniform(-5.0, 5.0, (3, 500))
        c, a0, aE, b0, bE = cocycle._step_coefs(h, *v)
        a, b = a0 + aE * E, b0 + bE * E
        got = np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2)
        want = self.exponent(h, v, E)
        size = np.maximum(1.0, np.max(np.abs(want), axis=(1, 2)))
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 4e-15 * size)

    def test_constant_potential_has_no_commutator(self):
        # beta = delta = 0: Omega = h [[0, v - E], [1, 0]] to the last bit
        c, a0, aE, b0, bE = cocycle._step_coefs(0.3, 2.0, 2.0, 2.0)
        assert (c, a0, aE, b0, bE) == (0.3, 0.0, 0.0, 0.3 * 2.0, -0.3)


def reference_steps(coefs, E):
    """Magnus step propagators as a (K, steps, 2, 2) stack: the layout the
    plane kernel replaced, kept as its reference.  The coefficients
    (c, a0, aE, b0, bE) come from cocycle._step_coefs, checked on its own in
    TestStepCoefs, and (C, S) from cocycle._cos_sinc, checked in
    TestCosSinc."""
    c, a0, aE, b0, bE = (x[None, :] for x in coefs)
    a = aE * E[:, None] + a0
    b = bE * E[:, None] + b0
    C, S = cocycle._cos_sinc(-(a * a + b * c))
    out = np.empty(C.shape + (2, 2), dtype=C.dtype)
    out[..., 0, 0] = C + S * a
    out[..., 0, 1] = S * b
    out[..., 1, 0] = S * c
    out[..., 1, 1] = C - S * a
    return out


def reference_product(S):
    """S[:, n-1] ... S[:, 0] by pairwise mul2 rounds, odd last factor
    carried."""
    while S.shape[1] > 1:
        n = S.shape[1]
        paired = sl2.mul2(S[:, 1::2], S[:, 0:n - 1:2])
        S = paired if n % 2 == 0 else np.concatenate([paired, S[:, -1:]], axis=1)
    return S[:, 0]


def reference_scan(S):
    """P[:, k] = S[:, k-1] ... S[:, 0], k = 0..n, by a Hillis-Steele scan
    of mul2 rounds."""
    K, n = S.shape[:2]
    P = np.empty((K, n + 1, 2, 2), dtype=S.dtype)
    P[:, 0] = np.eye(2)
    P[:, 1:] = S
    d = 1
    while d < n:
        P[:, d + 1:] = sl2.mul2(P[:, d + 1:], P[:, 1:n + 1 - d])
        d *= 2
    return P


def exact_cos_sinc(x):
    """cos(sqrt(x)) and sin(sqrt(x))/sqrt(x) at the double x as exact
    rationals: their Taylor sums to degree 24, whose dropped tail is below
    1e-60 for |x| <= 1."""
    q, term = Fraction(x), Fraction(1)
    c = s = Fraction(0)
    for k in range(25):
        c += term / math.factorial(2 * k)
        s += term / math.factorial(2 * k + 1)
        term *= -q
    return c, s


class TestCosSinc:
    """The fixed-degree series of cocycle._cos_sinc for real |x| <= R."""

    R = cocycle._SERIES_RADIUS

    def test_radius_is_largest_with_small_tail(self):
        # the tail of the cos series is the larger of the two
        def tail(x):
            q = Fraction(x)
            return sum(q ** k / math.factorial(2 * k)
                       for k in range(cocycle._SERIES_DEGREE + 1, 40))

        assert tail(self.R) < Fraction(1, 2 ** 55)
        assert tail(math.nextafter(self.R, 1.0)) >= Fraction(1, 2 ** 55)

    def test_relative_error_against_exact(self):
        # over 4,000 random |x| <= R the worst seen was 1.19 * 2^-53, and
        # 1.86 * 2^-53 for the libm path it replaced
        R = self.R
        mags = np.concatenate([np.linspace(0.0, R, 101), np.geomspace(1e-300, R, 60),
                               [math.nextafter(R, 0.0), 5e-324]])
        x = np.concatenate([mags, -mags])
        for got, x_ in zip(zip(*cocycle._cos_sinc(x)), x.tolist()):
            for g, want in zip(got, exact_cos_sinc(x_)):
                assert abs(Fraction(float(g)) - want) <= want * Fraction(1, 2 ** 52), x_

    def test_bits_independent_of_batch(self):
        rng = np.random.default_rng(3)
        R = self.R
        x = np.concatenate([rng.uniform(-2.0 * R, 2.0 * R, 997),
                            [R, -R, 0.0, 3.0, -3.0]])
        c, s = cocycle._cos_sinc(x)
        perm = rng.permutation(x.size)
        for got, want in zip(cocycle._cos_sinc(x[perm]), (c[perm], s[perm])):
            np.testing.assert_array_equal(got, want)
        for size in (1, 3, 64, 500):
            parts = [cocycle._cos_sinc(x[i:i + size]) for i in range(0, x.size, size)]
            np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), c)
            np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), s)
        for got, want in zip(cocycle._cos_sinc(x.reshape(2, -1)), (c, s)):
            np.testing.assert_array_equal(got.ravel(), want)


def workload_bump(height=1.0, zero_nbhd=0.5, spec=(0.05, 1, 1)):
    """The padded bump of the continuum-spectra benchmark workload."""
    return ContinuumCocycle(deform.pad(
        smooth_bump_potential(2.0, height, zero_nbhd), deform.PaddingSpec(*spec)))


class TestPlaneKernel:
    """The component-plane kernel equals the (K, steps, 2, 2) kernel it
    replaced bit for bit, whatever the energy block."""

    E_REAL = np.linspace(-3.0, 40.0, 23)

    @pytest.mark.parametrize("steps", [1, 2, 7, 64, 192, 383, 384])
    @pytest.mark.parametrize("shift", [0.0, 1e-100, 0.3])
    def test_product_and_scan_equal_reference(self, steps, shift):
        piece = next(p for _, _, p in workload_bump()._segments if p)
        coefs = piece._uniform(steps)
        E = self.E_REAL + 1j * shift if shift else self.E_REAL
        planes = cocycle._magnus_steps(coefs, E)
        ref = reference_steps(coefs, E)
        np.testing.assert_array_equal(planes.transpose(3, 2, 0, 1), ref)
        np.testing.assert_array_equal(
            sl2.plane_product(planes).transpose(2, 0, 1), reference_product(ref))
        np.testing.assert_array_equal(
            sl2.plane_scan(planes).transpose(3, 2, 0, 1), reference_scan(ref))

    @pytest.mark.parametrize("shift", [0.0, 1e-100, 0.3])
    def test_cos_sinc_equals_reference(self, shift):
        # the libm paths: complex x, and real x past the series radius
        R = cocycle._SERIES_RADIUS
        x = np.concatenate([np.linspace(-30.0, 30.0, 301),
                            [-1e-10, -3e-11, 0.0, 2e-11, 1e-10],
                            np.nextafter([-R, R], [-1.0, 1.0])])
        x = x + 1j * shift if shift else x[np.abs(x) > R]
        for got, want in zip(cocycle._cos_sinc(x), reference_cos_sinc(x)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shift", [0.0, 1e-100, 0.3])
    def test_piece_full_and_prefix_equal_reference(self, shift):
        piece = next(p for _, _, p in workload_bump()._segments if p)
        E = self.E_REAL + 1j * shift if shift else self.E_REAL
        steps = reference_steps(piece._coefs, E)
        np.testing.assert_array_equal(piece.full(E), reference_product(steps))
        s = np.array([0.0, 0.3 * piece._h, piece._h, 0.37, 0.5 * piece.length,
                      piece.length])
        k = np.minimum(np.floor(s / piece._h), piece.steps).astype(int)
        left = k * piece._h
        r = np.maximum(s - left, 0.0)
        short = reference_steps(cocycle._step_coefs(r, *piece._sample(left, r)), E)
        want = sl2.mul2(short, reference_scan(steps)[:, k])
        np.testing.assert_array_equal(piece.prefix(E, s), want)

    @pytest.mark.parametrize("block", [1, 7])
    def test_outputs_independent_of_block(self, monkeypatch, block):
        def results():
            sysm = workload_bump()
            E = np.linspace(-0.5, 5.0, 40)
            bs = band_spectrum(sysm, -0.5, 5.0, grid=256)
            return (sysm.monodromy(E), sysm.monodromy(E, t0=1.3),
                    sysm.prefix_grid(E[:9], np.linspace(-3.0, 9.0, 11)),
                    sysm.trace_derivative(E),
                    [(repr(b.lo), repr(b.hi), b.lo_sign, b.hi_sign)
                     for b in bs.bands])

        default = results()
        assert workload_bump()._batch == 256
        monkeypatch.setattr(ContinuumCocycle, "_batch", block)
        for got, want in zip(results(), default):
            np.testing.assert_array_equal(got, want)

    def test_workload_bump_step_count(self):
        # every piece of v0 and of the benchmark's padded bump takes 192 steps
        v0 = load_descriptor(os.path.join(os.path.dirname(__file__), "..",
                                          "descriptors", "v0.json"))
        for sysm in (ContinuumCocycle(v0), workload_bump()):
            assert {p.steps for _, _, p in sysm._segments if p} == {192}

    def test_band_scan_energy_count(self, monkeypatch):
        # every energy the scan evaluates passes through the piece's step
        # planes once; 58 at this writing, the trace energies that
        # TestBandSpectrum.test_scan_energy_count bounds
        sysm = workload_bump()
        (piece,) = sysm._blocks[0]
        counted = []
        steps = cocycle._magnus_steps

        def wrapped(coefs, E):
            if coefs is piece._coefs:
                counted.append(np.size(E))
            return steps(coefs, E)

        monkeypatch.setattr(cocycle, "_magnus_steps", wrapped)
        band_spectrum(sysm, -0.5, 5.0, grid=1024)
        assert sum(counted) <= 60

    def test_trace_memory_bounded(self):
        # 50,000 energies in 256-energy blocks: a 12.5 MB tracemalloc peak
        # measured (16.7 MB with 256-energy blocks of the former layout)
        sysm = workload_bump()
        E = np.linspace(-0.5, 5.0, 50_000)
        sysm.trace(E[:4])
        tracemalloc.start()
        try:
            sysm.trace(E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_blocks_reuse_memory(self):
        # a block that returned its work arrays to the system faulted them
        # back in on the next one: 62,634 minor page faults for these
        # 10,000 energies in the former layout, 236 measured here.  The
        # count runs in a fresh process, because the allocator's mmap and
        # trim thresholds depend on what earlier tests freed, and in the
        # suite's process that hid a kernel faulting 28,704 pages
        pytest.importorskip("resource")
        code = ("import resource\n"
                "import numpy as np\n"
                "from cocycle_lab import deform\n"
                "from cocycle_lab.cocycle import ContinuumCocycle\n"
                "from cocycle_lab.potentials import smooth_bump_potential\n"
                "sysm = ContinuumCocycle(deform.pad(smooth_bump_potential("
                "2.0, 1.0, 0.5), deform.PaddingSpec(0.05, 1, 1)))\n"
                "E = np.linspace(-0.5, 5.0, 10_000)\n"
                "sysm.trace(E[:2_000])\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "sysm.trace(E)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - before)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cocycle.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2_000


def reference_period_pass(sysm, E, times):
    """(prefix grid at times, monodromy) of a continuum cocycle as
    (K, ..., 2, 2) stacks, by the stack layout the plane pass replaced:
    free_block and piece blocks (reference_steps, reference_product and
    reference_scan) chained by sl2.mul2, one time at a time."""
    segs = sysm._segments
    cur = np.broadcast_to(np.eye(2, dtype=np.result_type(E, float)), E.shape + (2, 2))
    entries, blocks, scans = [cur], {}, {}
    for _, length, piece in segs:
        key = length if piece is None else piece
        if key not in blocks:
            blocks[key] = (free_block(E, length) if piece is None else
                           reference_product(reference_steps(piece._coefs, E)))
        cur = sl2.mul2(blocks[key], cur)
        entries.append(cur)
    M = entries[-1]
    ks = np.floor(times / sysm.period).astype(int)
    ends = np.array([start + length for start, length, _ in segs])
    grid = np.empty(E.shape + times.shape + (2, 2), M.dtype)
    for j, t in enumerate(times - ks * sysm.period):
        i = min(int(np.searchsorted(ends, t, side="right")), len(segs) - 1)
        start, length, piece = segs[i]
        s = min(max(t - start, 0.0), length)
        if piece is None:
            blk = free_block(E, s)
        else:
            if piece not in scans:
                scans[piece] = reference_scan(reference_steps(piece._coefs, E))
            k = min(math.floor(s / piece._h), piece.steps)
            r = np.array([max(s - k * piece._h, 0.0)])
            coefs = cocycle._step_coefs(r, *piece._sample(k * piece._h, r))
            blk = sl2.mul2(reference_steps(coefs, E)[:, 0], scans[piece][:, k])
        grid[:, j] = sl2.mul2(blk, entries[i])
    return cocycle._times_period_powers(M, ks, grid), M


PERIOD_PASS_SYSTEMS = {
    "v0": lambda: ContinuumCocycle(_descriptor("v0.json")),
    "well": lambda: ContinuumCocycle(cosine_well_potential()),
    "padded-well": lambda: ContinuumCocycle(deform.pad(
        cosine_well_potential(), deform.PaddingSpec(0.1, 2, 2))),
    "padded-bump": lambda: ContinuumCocycle(deform.pad(
        smooth_bump_potential(), deform.PaddingSpec(0.05, 4, 2))),
}


class TestPeriodPass:
    """The plane-native period pass equals the stack pass it replaced bit
    for bit, and builds each exponential once per energy block."""

    @pytest.mark.parametrize("name", sorted(PERIOD_PASS_SYSTEMS))
    def test_equals_stack_reference(self, name):
        sysm = PERIOD_PASS_SYSTEMS[name]()
        T = sysm.period
        E = np.linspace(-1.5, 30.0, 300)  # two energy blocks
        times = np.linspace(-0.3 * T, 2.5 * T, 29)
        grid, M = reference_period_pass(sysm, E, times)
        np.testing.assert_array_equal(sysm.trace(E), sl2.tr2(M))
        np.testing.assert_array_equal(sysm.monodromy(E), M)
        got = sysm.prefix_grid(E, times)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, grid)
        t0 = 0.37 * T
        P = reference_period_pass(sysm, E, np.array([t0]))[0][:, 0]
        np.testing.assert_array_equal(sysm.monodromy(E, t0=t0),
                                      sl2.mul2(sl2.mul2(P, M), sl2.inv2(P)))
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(np.abs(sl2.tr2(M)) < 2.0, sl2.fixed_points2(M), np.nan)
            want = sl2.moebius2(grid, np.broadcast_to(u[:, None], grid.shape[:2]))
        got = cocycle.section_points(sysm, E, times)
        assert np.isfinite(got).any() and np.isnan(got).any()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_free_block_keeps_its_formulas(self, shift):
        # x = E (L L), then (-E L) s and L s, into a (..., 2, 2) stack
        E = np.linspace(-40.0, 40.0, 301)[:, None] + 1j * shift if shift else (
            np.linspace(-40.0, 40.0, 301)[:, None])
        L = np.array([1e-3, 0.05, 0.4, 1.0, 2.5])
        c, s = cocycle._cos_sinc(E * (L * L))
        want = np.empty(c.shape + (2, 2), dtype=c.dtype)
        want[..., 0, 0] = want[..., 1, 1] = c
        want[..., 0, 1] = -E * L * s
        want[..., 1, 0] = L * s
        np.testing.assert_array_equal(free_block(E, L), want)

    def test_complex_energies_equal_stack_reference(self):
        # bitwise here too: numpy's complex multiply could round differently
        # in a loop's vector body and its tail, but these products agree
        sysm = PERIOD_PASS_SYSTEMS["padded-bump"]()
        E = np.linspace(-1.5, 30.0, 300) + 0.3j
        times = np.linspace(-0.3, 2.5, 17) * sysm.period
        grid, M = reference_period_pass(sysm, E, times)
        np.testing.assert_array_equal(sysm.trace(E), sl2.tr2(M))
        np.testing.assert_array_equal(sysm.monodromy(E), M)
        np.testing.assert_array_equal(sysm.prefix_grid(E, times), grid)

    def test_one_exponential_call_per_block(self, monkeypatch):
        # the benchmark's padded bump: one distinct piece, two gap lengths
        sysm = workload_bump()
        assert len(sysm._blocks[0]) == 1 and len(sysm._blocks[1]) == 2
        calls = {"_magnus_steps": 0, "_cos_sinc": 0}
        for name in calls:
            fn = getattr(cocycle, name)
            monkeypatch.setattr(cocycle, name, lambda *a, fn=fn, name=name: (
                calls.__setitem__(name, calls[name] + 1), fn(*a))[1])
        E = np.linspace(-0.5, 5.0, 40)
        sysm._grid_and_monodromy(E, np.linspace(0.0, sysm.period, 50))
        # whole steps once, short steps once
        assert calls["_magnus_steps"] == 2
        calls.update(_magnus_steps=0, _cos_sinc=0)
        sysm.monodromy(E)
        # all gaps in one call, plus one per piece
        assert calls == {"_magnus_steps": 1, "_cos_sinc": 2}


class TestDiscreteTransfer:
    def test_step_product_by_hand(self):
        pot = DiscretePotential((0.0, 0.5))
        sysm = DiscreteCocycle(pot)
        E = 1.2
        s0 = np.array([[E, -1.0], [1.0, 0.0]])
        s1 = np.array([[E - 0.5, -1.0], [1.0, 0.0]])
        assert np.allclose(sysm.monodromy(E), s1 @ s0, atol=1e-14)

    def test_alternating_trace_closed_form(self):
        lam = 0.5
        sysm = alt_cocycle(lam)
        E = np.linspace(-3, 3, 11)
        want = E * (E - lam) - 2.0
        assert np.allclose(sysm.trace(E), want, atol=1e-12)

    def test_prefix_and_transfer_agree(self):
        sysm = alt_cocycle()
        E = np.array([0.7])
        for j in (0, 1, 2, 5, 8):
            assert np.allclose(sysm.prefix(E, j), sysm.transfer(E, 0, j), atol=1e-12)

    def test_prefix_many_periods_hyperbolic(self):
        # outside the spectrum the powers grow past the accurate range of
        # ad - bc; the direct step-by-step product is the reference
        sysm = alt_cocycle()
        for E, j in ((3.5, 41), (-2.6, 60), (5.0, 33)):
            want = sysm.transfer(E, 0, j)
            got = sysm.prefix(E, j)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_negative_direction(self):
        sysm = alt_cocycle()
        E = 0.3
        a = sysm.transfer(E, 0, 4)
        b = sysm.transfer(E, 4, 0)
        assert np.allclose(a @ b, np.eye(2), atol=1e-12)

    def test_trace_derivative_exact_vs_fd(self):
        sysm = alt_cocycle()
        for E in (-1.0, 0.7):
            h = 1e-7
            fd = (sysm.trace(E + h) - sysm.trace(E - h)) / (2 * h)
            assert sysm.trace_derivative(E) == pytest.approx(fd, rel=1e-6)

    def test_trace_derivative_closed_form(self):
        # alternating: trace = E(E - lam) - 2, derivative 2E - lam
        lam = 0.5
        sysm = alt_cocycle(lam)
        E = np.linspace(-2, 2, 9)
        assert np.allclose(sysm.trace_derivative(E), 2 * E - lam, atol=1e-10)

    @staticmethod
    def _mul2_table(E, values):
        """P_j = S_{j-1} ... S_0, j = 0..n, by one sl2.mul2 per site."""
        steps = cocycle.step_matrices(E, np.asarray(values))
        out = [np.broadcast_to(np.eye(2, dtype=steps.dtype), steps[:, 0].shape)]
        for j in range(len(values)):
            out.append(sl2.mul2(steps[:, j], out[-1]))
        return np.stack(out)

    @pytest.mark.parametrize("complex_step", [False, True])
    def test_site_products_keep_the_mul2_bits(self, complex_step):
        # at E = 0, u(2) = 0.5 * 2 - 1 is exactly 0 (its real part with the
        # complex step): rotation_count reads its sign, so the zero must
        # come out with the mul2 loop's sign
        values = (-2.0, -0.5, 1.0)
        E = np.concatenate([[0.0], np.linspace(-3.1, 3.3, 40), [np.inf]])
        if complex_step:
            E = E + 1e-100j
        sysm = DiscreteCocycle(DiscretePotential(values))
        with np.errstate(invalid="ignore"):
            want = self._mul2_table(E, values)
            planes = list(cocycle.site_products(E, values))
            table = sysm._prefix_table(E)
            mono = sysm.monodromy(E)
        assert want[2, 0, 0, 0].real == 0.0
        assert table.flags.c_contiguous
        for got in (np.stack([cocycle.plane_stack(P) for P in planes]), table):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert mono.tobytes() == want[-1].tobytes()

    def test_site_products_batch_slices(self):
        # a (slices, K) batch gives each slice the bits of its own recurrence
        fam = cos_family(0.2)
        values = np.array([fam.slice(t).values for t in (-0.4, 0.1, 0.75)]).T
        E = np.linspace(-2.0, 2.0, 33)
        for P in cocycle.site_products(E, values[:, :, None]):
            pass
        got = cocycle.plane_stack(P)
        for s in range(values.shape[1]):
            want = self._mul2_table(E, values[:, s])[-1]
            assert got[s].tobytes() == want.tobytes()


class TestBandSpectrum:
    def test_free_continuum_edges(self):
        sysm = free_cocycle(2.0)
        bs = band_spectrum(sysm, -0.5, 41.0, grid=2048)
        # edges at (k pi / T)^2, touching bands
        edges = [(k * math.pi / 2.0) ** 2 for k in range(5)]
        assert len(bs) >= 4
        for k in range(4):
            assert bs.bands[k].lo == pytest.approx(edges[k], abs=1e-8)
            assert bs.bands[k].hi == pytest.approx(edges[k + 1], abs=1e-8)
        # free bands touch: no spectral gap between them
        for k in range(3):
            assert bs.bands[k].hi == pytest.approx(bs.bands[k + 1].lo, abs=1e-10)

    def test_free_discrete_band(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        bs = discrete_band_spectrum(sysm)
        assert len(bs) == 1
        assert bs.bands[0].lo == pytest.approx(-2.0, abs=1e-10)
        assert bs.bands[0].hi == pytest.approx(2.0, abs=1e-10)

    def test_alternating_band_edges_closed_form(self):
        lam = 0.5
        sysm = alt_cocycle(lam)
        bs = discrete_band_spectrum(sysm)
        r = math.sqrt(lam * lam + 16.0)
        want = [((lam - r) / 2, 0.0), (lam, (lam + r) / 2)]
        assert len(bs) == 2
        for band, (lo, hi) in zip(bs.bands, want):
            assert band.lo == pytest.approx(lo, abs=1e-10)
            assert band.hi == pytest.approx(hi, abs=1e-10)

    def test_touching_bands_split_by_tangency(self):
        # free operator repeated twice: trace E^2 - 2 touches +2 at E = 0
        sysm = DiscreteCocycle(DiscretePotential((0.0, 0.0)))
        bs = discrete_band_spectrum(sysm)
        assert len(bs) == 2
        assert bs.bands[0].hi == pytest.approx(0.0, abs=1e-9)
        assert bs.bands[1].lo == pytest.approx(0.0, abs=1e-9)
        assert bs.bands[0].lo == pytest.approx(-2.0, abs=1e-10)
        assert bs.bands[1].hi == pytest.approx(2.0, abs=1e-10)

    def test_budget_exhaustion_raises(self):
        # the scan spends 41 energies here: 17 interpolation nodes, then
        # count energies and the edge solves
        sysm = alt_cocycle()
        with pytest.raises(ResolutionError, match="budget"):
            band_spectrum(sysm, -3.0, 3.0, grid=4096, budget=20)

    def test_edge_signs(self):
        sysm = free_cocycle(2.0)
        bs = band_spectrum(sysm, -0.5, 11.0, grid=1024)
        assert bs.bands[0].lo_sign == 1
        assert bs.bands[0].hi_sign == -1
        assert bs.bands[1].lo_sign == -1

    def test_batched_solves_equal_solo_solves(self, monkeypatch):
        # every bracket solved alone, with its end values evaluated afresh,
        # gives the bits of the lockstep solves; the well runs the edge solve
        # (bisection finds its micro-gap near E = 38.8) and the free operator
        # the Dirichlet-eigenvalue solves of its touching points too
        cases = [(ContinuumCocycle(cosine_well_potential()), -4.0, 40.0),
                 (free_cocycle(2.0), -0.5, 41.0)]
        batched = [band_spectrum(*case) for case in cases]
        lockstep = util.brentq
        sizes = []

        def solo(f, a, b, fa=None, fb=None, **kw):
            sizes.append(np.size(a))
            return np.array([
                lockstep(lambda x, _: f(x, np.full(x.shape, k)), ak, bk, **kw)
                for k, (ak, bk) in enumerate(zip(a, b))])

        monkeypatch.setattr(util, "brentq", solo)
        for case, want, touching in zip(cases, batched, (0, 4)):
            sizes.clear()
            assert band_spectrum(*case) == want
            # one Dirichlet solve per touching point, then one stage for
            # every band edge inside the scan
            solved = [n for n in sizes if n]
            assert sum(solved[:-1]) == touching
            assert solved[-1] == sum(abs(b.lo_sign) + abs(b.hi_sign)
                                     for b in want.bands)

    def test_padded_bump_trace_calls(self, monkeypatch):
        # all brackets of a stage share each trace call: 1061 calls when
        # each edge had its own scalar solve, 24 now
        sysm = ContinuumCocycle(deform.pad(smooth_bump_potential(),
                                           deform.PaddingSpec(0.05, 4, 2)))
        calls = []
        trace = ContinuumCocycle.trace

        def counted(self, E):
            calls.append(np.size(E))
            return trace(self, E)

        monkeypatch.setattr(ContinuumCocycle, "trace", counted)
        bs = band_spectrum(sysm, -1.0, 12.0)
        assert len(bs) == 35
        assert len(calls) <= 30

    def test_micro_gap_placed_by_dirichlet_eigenvalue(self, monkeypatch):
        # period 3, v = (0, eps, 0): trace E^3 - 3E - eps (E^2 - 1), so the
        # gaps run from -1 and from 1 to the roots of the quadratics below,
        # and the Dirichlet eigenvalues, near +-1 + eps / 2, lie inside them;
        # a 16-point scan misses both gaps, and with no bisection they are
        # placed from the Dirichlet eigenvalues at once
        eps = 1e-3
        monkeypatch.setattr(cocycle, "_GAP_WIDTH", 1.0)
        sysm = DiscreteCocycle(DiscretePotential((0.0, eps, 0.0)))
        bs = discrete_band_spectrum(sysm, grid=16)
        above = [np.min(np.roots([1.0, -(1.0 + eps), eps - 2.0])),
                 np.max(np.roots([1.0, 1.0 - eps, -2.0 - eps]))]
        assert [b.hi for b in bs.bands[:2]] == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert [b.lo for b in bs.bands[1:]] == pytest.approx(above, abs=1e-12)

    def test_hidden_band_raises(self, monkeypatch):
        # a trace that hides the padded bump's narrow lowest band (and the
        # micro-gap above it) behind one gap: the oscillation count still
        # steps twice there, so the scan cannot pass
        sysm = ContinuumCocycle(deform.pad(smooth_bump_potential(),
                                           deform.PaddingSpec(0.05, 4, 2)))
        trace = ContinuumCocycle.trace

        def hiding(self, E):
            tr = np.asarray(trace(self, E))
            return np.where((0.43 < E) & (E < 0.448), 3.0, tr)

        monkeypatch.setattr(ContinuumCocycle, "trace", hiding)
        with pytest.raises(ResolutionError, match="oscillation count"):
            band_spectrum(sysm, -1.0, 12.0)

    def test_scan_energy_count(self, monkeypatch):
        # the benchmark's padded bump at grid 1024: 17 interpolation nodes,
        # 9 energies within the interpolant's margin, 4 bracket ends
        # re-evaluated and 9 steps of the edge solves, 58 trace energies in
        # all (1,053 when the scan evaluated its whole grid, 3,181 with the
        # former refinement and tangency stages), with 7 count energies
        sysm = workload_bump()
        traced, counted = [], []
        trace, count = ContinuumCocycle.trace, cocycle.rotation_count

        def traced_trace(self, E):
            traced.append(np.size(E))
            return trace(self, E)

        def counted_count(system, E):
            counted.append(np.size(E))
            return count(system, E)

        monkeypatch.setattr(ContinuumCocycle, "trace", traced_trace)
        monkeypatch.setattr(cocycle, "rotation_count", counted_count)
        assert len(band_spectrum(sysm, -0.5, 5.0, grid=1024)) == 3
        assert sum(traced) <= 60 and len(traced) <= 12
        assert sum(counted) <= 8 and len(counted) == 1

    def test_micro_gap_wider_than_tangency_grid(self):
        # near E = -0.77 the padded well has a micro-gap whose left edge
        # lies more than one tangency grid step left of the peak, so the
        # peak's neighbour is no bracket for that edge
        sysm = ContinuumCocycle(deform.pad(cosine_well_potential(),
                                           deform.PaddingSpec(0.1, 2, 2)))
        bs = band_spectrum(sysm, -2.0, 30.0)
        assert len(bs) == 43
        edges = np.array([e for b in bs.bands for e in (b.lo, b.hi)])
        assert np.all(np.diff(edges) >= 0.0)
        inner = edges[(edges > -2.0) & (edges < 30.0)]
        assert np.max(np.abs(np.abs(sysm.trace(inner)) - 2.0)) <= 1e-10
        near = [b for b in bs.bands if -0.78 < b.lo < -0.76 or -0.78 < b.hi < -0.76]
        assert len(near) == 2 and near[0].hi < near[1].lo


DESCRIPTORS = os.path.join(os.path.dirname(__file__), "..", "descriptors")


def _bump_seed(seed):
    g = np.random.default_rng(seed)
    return workload_bump(float(g.uniform(0.9, 1.1)), float(g.uniform(0.45, 0.55)))


def _exact_scan(tr_of, E):
    return tr_of(E), np.ones(E.shape, dtype=bool)


def _band_bits(bs):
    return [(b.lo.hex(), b.hi.hex(), b.lo_sign, b.hi_sign) for b in bs.bands]


def _over_scan_range(sysm, grid, decides, *e_max):
    return (sysm, *sysm.scan_range(*e_max), grid, decides)


def _descriptor(name):
    return load_descriptor(os.path.join(DESCRIPTORS, name))


# (system, e_min, e_max, grid, whether the interpolant decides the scan)
SCAN_CASES = {
    **{f"bump-{seed}": (lambda seed=seed: (_bump_seed(seed), -0.5, 5.0, 1024, True))
       for seed in (1, 7, 11, 3101)},
    "v0-12": lambda: _over_scan_range(
        ContinuumCocycle(_descriptor("v0.json")), 4096, True, 12.0),
    "well-12": lambda: _over_scan_range(
        ContinuumCocycle(cosine_well_potential()), 4096, False, 12.0),
    "padded-bump-12": lambda: (
        ContinuumCocycle(deform.pad(smooth_bump_potential(),
                                    deform.PaddingSpec(0.05, 4, 2))),
        -1.0, 12.0, 1024, False),
    "cos5-discrete": lambda: _over_scan_range(
        DiscreteCocycle(_descriptor("cos5.json").slice(0.0)), 4096, True),
}


class TestScanInterpolant:
    """The band scan's Chebyshev interpolant decides each grid energy as the
    exact trace does, and never costs more than its nodes."""

    def test_interpolant_reproduces_polynomials(self):
        d = cocycle._SCAN_DEGREE
        coefs = np.random.default_rng(3).normal(size=d + 1)
        t = np.linspace(-1.0, 1.0, 1001)
        f = np.polyval(coefs, np.cos(np.pi / d * np.arange(d + 1)))
        got = cocycle._lobatto_interpolant(f, t)
        assert np.max(np.abs(got - np.polyval(coefs, t))) <= 1e-13

    @pytest.mark.parametrize("name", SCAN_CASES)
    def test_flags_equal_the_exact_traces(self, name):
        sysm, lo, hi, grid, decides = SCAN_CASES[name]()
        E = np.linspace(lo, hi, grid + 1)
        tr, exact = cocycle._scan_traces(sysm.trace, E)
        want = sysm.trace(E)
        assert exact.all() != decides
        assert np.array_equal(np.abs(tr) <= 2.0, np.abs(want) <= 2.0)
        outside = np.abs(want) > 2.0
        assert np.array_equal(np.signbit(tr[outside]), np.signbit(want[outside]))
        assert np.array_equal(tr[exact], want[exact])

    @pytest.mark.parametrize("name", SCAN_CASES)
    def test_bands_equal_the_exact_scan(self, name, monkeypatch):
        sysm, lo, hi, grid, _ = SCAN_CASES[name]()
        got = band_spectrum(sysm, lo, hi, grid=grid)
        monkeypatch.setattr(cocycle, "_scan_traces", _exact_scan)
        assert _band_bits(band_spectrum(sysm, lo, hi, grid=grid)) == _band_bits(got)

    def test_unresolved_trace_costs_the_nodes_at_most(self, monkeypatch):
        # the PaddingSpec(0.05, 4, 2) bump to E = 1000 has 323 bands, far
        # beyond a degree-16 interpolant: the scan falls back to the whole
        # grid, and the node energies are all it spends beyond the exact scan
        sysm = ContinuumCocycle(deform.pad(smooth_bump_potential(),
                                           deform.PaddingSpec(0.05, 4, 2)))
        grid, d = 1024, cocycle._SCAN_DEGREE
        spent = []

        def tr_of(E):
            spent.append(E.size)
            return sysm.trace(E)

        _, exact = cocycle._scan_traces(tr_of, np.linspace(-1.0, 1000.0, grid + 1))
        assert exact.all() and sum(spent) == grid + 1 + d + 1

        traced = []
        trace = ContinuumCocycle.trace

        def traced_trace(self, E):
            traced.append(np.size(E))
            return trace(self, E)

        monkeypatch.setattr(ContinuumCocycle, "trace", traced_trace)
        band_spectrum(sysm, -1.0, 1000.0, grid=grid)
        interpolated = sum(traced)
        traced.clear()
        monkeypatch.setattr(cocycle, "_scan_traces", _exact_scan)
        band_spectrum(sysm, -1.0, 1000.0, grid=grid)
        assert interpolated == sum(traced) + d + 1


def dirichlet_fd_eigenvalues(pot, E_max, h=1e-3):
    """Eigenvalues below E_max of -u'' + V u on [0, period] with u = 0 at
    both ends, by the second-order stencil."""
    x = np.arange(1, round(pot.period / h)) * h
    off = np.full(x.size - 1, -1.0 / h ** 2)
    return eigvalsh_tridiagonal(2.0 / h ** 2 + pot(x), off, select="v",
                                select_range=(-50.0, E_max))


class TestRotationCount:
    """The oscillation count against independent oracles."""

    @pytest.mark.parametrize("name", ["alternating.json", "cos2.json",
                                      "cos3.json", "cos5.json", "free.json"])
    def test_discrete_count_is_dirichlet_eigenvalues_below(self, name):
        pot = load_descriptor(os.path.join(DESCRIPTORS, name)).slice(0.0)
        sysm = DiscreteCocycle(pot)
        v = np.asarray(pot.values)
        n = v.size
        # sites 0 .. n - 2 with u(-1) = u(n - 1) = 0
        mu = np.linalg.eigvalsh(np.diag(v[:-1]) + np.eye(n - 1, k=1)
                                + np.eye(n - 1, k=-1))
        E = np.linspace(*sysm.scan_range(), 2001)
        want = np.searchsorted(mu, E)
        assert np.array_equal(cocycle.rotation_count(sysm, E), want)

    @pytest.mark.parametrize("pot", [
        lambda: load_descriptor(os.path.join(DESCRIPTORS, "v0.json")),
        cosine_well_potential,
        lambda: deform.pad(smooth_bump_potential(), deform.PaddingSpec(0.05, 4, 2)),
    ], ids=["v0", "well", "padded-bump"])
    def test_continuum_count_numbers_bands_and_gaps(self, pot):
        sysm = ContinuumCocycle(pot())
        bs = band_spectrum(sysm, *sysm.scan_range(12.0))
        lo, hi = (np.array([getattr(b, f) for b in bs.bands]) for f in ("lo", "hi"))
        k = np.arange(lo.size)
        # band k, counted from the bottom of the spectrum
        inner = np.concatenate([lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)])
        assert np.array_equal(cocycle.rotation_count(sysm, inner), np.tile(k, 3))
        # above k bands the count is k - 1 or k, and the trace sign (-1)^k
        # tells which: with it the count is the number of bands below
        gaps = 0.5 * (hi[:-1] + lo[1:])
        c = cocycle.rotation_count(sysm, gaps)
        assert np.array_equal(c + (c + (sysm.trace(gaps) < 0.0)) % 2, k[1:])
        # a finite-difference Dirichlet problem counts the same eigenvalues
        mu = dirichlet_fd_eigenvalues(sysm.pot, 13.0)
        E = np.linspace(*sysm.scan_range(12.0), 3001)
        E = E[np.min(np.abs(E[:, None] - mu[None, :]), axis=1) > 1e-3]
        assert np.array_equal(cocycle.rotation_count(sysm, E),
                              np.searchsorted(mu, E))

    def test_free_count_through_long_steps(self):
        # one free stretch of length 2 turns by sqrt(E) L, more than a half
        # turn above E = 2.5: it is cut into quarter turns, and sin(sqrt(E) x)
        # has floor(2 sqrt(E) / pi) zeros in (0, 2) where that is no integer
        E = np.linspace(-3.0, 900.0, 5001)
        want = np.floor(2.0 * np.sqrt(np.maximum(E, 0.0)) / math.pi)
        exact = np.abs(2.0 * np.sqrt(np.maximum(E, 0.0)) / math.pi - want) < 1e-9
        got = cocycle.rotation_count(free_cocycle(2.0), E)
        assert np.array_equal(got[~exact], want[~exact])


class TestIdsAndDensity:
    def test_free_continuum_ids(self):
        sysm = free_cocycle(2.0)
        bs = band_spectrum(sysm, -0.5, 11.0, grid=1024)
        for E in (0.5, 1.0, 2.0, 4.0, 7.0):
            assert ids(sysm, E, bs) == pytest.approx(math.sqrt(E) / math.pi, abs=1e-9)

    def test_free_discrete_ids(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        bs = discrete_band_spectrum(sysm)
        for E in (-1.5, -0.3, 0.0, 1.0, 1.9):
            want = 1.0 - math.acos(E / 2.0) / math.pi
            assert ids(sysm, E, bs) == pytest.approx(want, abs=1e-10)

    def test_ids_constant_on_gap(self):
        sysm = alt_cocycle(0.5)
        bs = discrete_band_spectrum(sysm)
        gapE = np.linspace(0.05, 0.45, 5)
        vals = ids(sysm, gapE, bs)
        assert np.allclose(vals, 0.5, atol=1e-12)

    def test_ids_against_counting_oracle(self):
        lam = 0.5
        sysm = alt_cocycle(lam)
        bs = discrete_band_spectrum(sysm)
        L = 4000
        v = np.tile([0.0, lam], L // 2)
        d = v
        e = np.ones(L - 1)
        for E in (-1.0, 0.8, 1.6):
            evs = eigvalsh_tridiagonal(d, e, select="v",
                                       select_range=(-10.0, E))
            want = len(evs) / L
            assert ids(sysm, E, bs) == pytest.approx(want, abs=2e-3)

    def test_continuum_ids_against_counting_oracle(self):
        pot = cosine_well_potential(period=3.0, height=2.0, zero_nbhd=1.0)
        sysm = ContinuumCocycle(pot)
        bs = band_spectrum(sysm, *sysm.scan_range(4.0), grid=1024)
        # Dirichlet truncation of -u'' + V u on [0, L], second-order stencil
        h = 0.01
        L = 300.0
        x = np.arange(1, int(L / h)) * h
        d = 2.0 / h ** 2 + pot(x)
        e = np.full(len(x) - 1, -1.0 / h ** 2)
        for E in (1.0, 3.0):
            evs = eigvalsh_tridiagonal(d, e, select="v", select_range=(-50.0, E))
            want = len(evs) / L
            assert ids(sysm, E, bs) == pytest.approx(want, abs=5e-3)

    def test_free_density_value(self):
        sysm = free_cocycle(2.0)
        assert density(sysm, 4.0) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-12)

    def test_density_matches_ids_slope(self):
        pot = cosine_well_potential()
        sysm = ContinuumCocycle(pot)
        bs = band_spectrum(sysm, *sysm.scan_range(4.0), grid=1024)
        E = 3.0
        h = 1e-5
        slope = (ids(sysm, E + h, bs) - ids(sysm, E - h, bs)) / (2 * h)
        assert density(sysm, E) == pytest.approx(slope, rel=1e-4)

    def test_discrete_density_matches_ids_slope(self):
        sysm = alt_cocycle()
        bs = discrete_band_spectrum(sysm)
        E = -1.0
        h = 1e-5
        slope = (ids(sysm, E + h, bs) - ids(sysm, E - h, bs)) / (2 * h)
        assert density(sysm, E) == pytest.approx(slope, rel=1e-3)

    def test_density_outside_band_raises(self):
        sysm = free_cocycle(2.0)
        with pytest.raises(NotEllipticError):
            density(sysm, -1.0)

    def test_discrete_density_outside_band_raises(self):
        sysm = DiscreteCocycle(DiscretePotential((0.0, 1.0)))
        with pytest.raises(NotEllipticError):
            density(sysm, 3.0)

    def test_free_discrete_density_closed_form(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        E = np.linspace(-1.99, 1.99, 41)
        want = 1.0 / (math.pi * np.sqrt(4.0 - E * E))
        np.testing.assert_allclose(density(sysm, E), want, rtol=1e-12, atol=0)

    def test_alternating_density_closed_form(self):
        # trace D = E (E - lam) - 2, so dN/dE = |D'| / (2 pi sqrt(4 - D^2))
        lam = 0.5
        E = np.array([-1.7, -1.0, -0.3, 0.6, 1.5, 2.2])
        D = E * (E - lam) - 2.0
        want = np.abs(2.0 * E - lam) / (2.0 * math.pi * np.sqrt(4.0 - D * D))
        np.testing.assert_allclose(density(alt_cocycle(lam), E), want,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["continuum", "discrete"])
    def test_ids_batch_equals_single_energies(self, kind):
        # energies in gaps, on edges and inside bands, through one batch
        if kind == "continuum":
            sysm = ContinuumCocycle(deform.pad(
                cosine_well_potential(), deform.PaddingSpec(0.1, 2, 2)))
            bs = band_spectrum(sysm, *sysm.scan_range(12.0))
        else:
            sysm = DiscreteCocycle(DiscretePotential((0.3, -0.4, 1.1, 0.2)))
            bs = discrete_band_spectrum(sysm)
        edges = [e for b in bs.bands for e in (b.lo, b.hi)]
        E = np.concatenate([np.linspace(bs.bands[0].lo - 1.0, bs.e_max, 301),
                            edges])
        np.testing.assert_array_equal(ids(sysm, E, bs),
                                      [ids(sysm, e, bs) for e in E])

    @pytest.mark.parametrize("values", [
        lambda: load_descriptor(os.path.join(DESCRIPTORS, "cos3.json")).slice(0.0).values,
        lambda: load_descriptor(os.path.join(DESCRIPTORS, "alternating.json")).slice(0.0).values,
        lambda: (0.3, -0.4, 1.1, 0.2, -0.9),
    ], ids=["cos3", "alternating", "five-site"])
    def test_discrete_ids_at_bloch_eigenvalues(self, values):
        # u(j + n) = e^{i theta} u(j) turns H into an n x n Hermitian matrix
        # whose k-th eigenvalue runs across band k as theta goes from 0 to
        # pi; there N = (k + theta / pi) / n, or (k + 1 - theta / pi) / n
        # where that eigenvalue falls with theta
        v = np.asarray(values(), dtype=float)
        n = v.size
        sysm = DiscreteCocycle(DiscretePotential(tuple(v)))

        def bloch_eigenvalues(theta):
            H = (np.diag(v) + np.eye(n, k=1) + np.eye(n, k=-1)).astype(complex)
            H[n - 1, 0] += np.exp(1j * theta)
            H[0, n - 1] += np.exp(-1j * theta)
            return np.linalg.eigvalsh(H)

        rising = bloch_eigenvalues(math.pi) > bloch_eigenvalues(0.0)
        k = np.arange(n)
        for theta in (0.3, 1.1, 2.0, 2.8):
            want = np.where(rising, k + theta / math.pi, k + 1 - theta / math.pi) / n
            np.testing.assert_allclose(ids(sysm, bloch_eigenvalues(theta)), want,
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("pot", [
        lambda: load_descriptor(os.path.join(DESCRIPTORS, "v0.json")),
        cosine_well_potential,
        lambda: deform.pad(smooth_bump_potential(), deform.PaddingSpec(0.05, 4, 2)),
    ], ids=["v0", "well", "padded-bump"])
    def test_continuum_ids_by_bloch_winding(self, pot):
        # the Bloch solution u whose argument turns forwards, Im(conj(u) u')
        # > 0, turns by pi N period over one period (Johnson & Moser)
        sysm = ContinuumCocycle(pot())
        E = np.linspace(*sysm.scan_range(12.0), 401)
        E = E[np.abs(sysm.trace(E)) < 1.9][::8]
        t = np.linspace(0.0, sysm.period, 8193)
        want = []
        for e, pref in zip(E, sysm.prefix_grid(E, t)):
            _, vecs = np.linalg.eig(sysm.monodromy(e))
            x = vecs[:, np.argmax((np.conj(vecs[1]) * vecs[0]).imag)]
            turn = np.unwrap(np.angle(pref[:, 1, :] @ x))
            want.append((turn[-1] - turn[0]) / (math.pi * sysm.period))
        assert len(want) >= 10
        np.testing.assert_allclose(ids(sysm, E), want, rtol=0, atol=1e-10)

    def test_ids_at_refined_edges_is_exact(self):
        # j / period at every refined edge, whichever count the edge reads
        sysm = workload_bump()
        bs = band_spectrum(sysm, -0.5, 20.0, grid=1024)
        edges = ([(b.lo, k) for k, b in enumerate(bs.bands) if b.lo_sign]
                 + [(b.hi, k + 1) for k, b in enumerate(bs.bands) if b.hi_sign])
        E, j = (np.array(v) for v in zip(*edges))
        assert E.size >= 10
        np.testing.assert_array_equal(ids(sysm, E), j / sysm.period)

    def test_discrete_ids_one_prefix_table(self, monkeypatch):
        # the count and the monodromy are read off one table per batch
        sysm = DiscreteCocycle(DiscretePotential((0.3, -0.4, 1.1, 0.2)))
        E = np.linspace(-2.5, 3.5, 301)
        want = ids(sysm, E)
        calls = []
        table, transfer = DiscreteCocycle._prefix_table, DiscreteCocycle.transfer

        def counted_table(self, E):
            calls.append("table")
            return table(self, E)

        def counted_transfer(self, *args):
            calls.append("transfer")
            return transfer(self, *args)

        monkeypatch.setattr(DiscreteCocycle, "_prefix_table", counted_table)
        monkeypatch.setattr(DiscreteCocycle, "transfer", counted_transfer)
        np.testing.assert_array_equal(ids(sysm, E), want)
        assert calls == ["table"]


class TestInvariantSection:
    @pytest.mark.parametrize("kind", ["continuum", "discrete"])
    def test_equals_monodromy_and_prefix_grid(self, kind):
        if kind == "continuum":
            sysm = workload_bump()
            E = np.linspace(-0.5, 5.0, 300)  # three energy blocks
            times = np.linspace(-1.0, 2.5 * sysm.period, 37)
        else:
            sysm = DiscreteCocycle(DiscretePotential((0.3, -0.4, 1.1, 0.2)))
            E = np.linspace(-2.5, 3.5, 300)
            times = np.arange(-5, 11)
        with np.errstate(invalid="ignore", divide="ignore"):
            M = sysm.monodromy(E)
            u = np.where(np.abs(sl2.tr2(M)) < 2.0, sl2.fixed_points2(M), np.nan)
            pref = sysm.prefix_grid(E, times)
            want = sl2.moebius2(pref, np.broadcast_to(u[:, None], pref.shape[:2]))
        got = cocycle.section_points(sysm, E, times)
        assert np.isfinite(got).any() and np.isnan(got).any()
        np.testing.assert_array_equal(got, want)

    def test_one_pass_per_energy_block(self, monkeypatch):
        sysm = workload_bump()
        calls = []
        entry = ContinuumCocycle._entry_matrices

        def counted(self, E):
            calls.append(E.shape[0])
            return entry(self, E)

        monkeypatch.setattr(ContinuumCocycle, "_entry_matrices", counted)
        E = cocycle.band_spectrum(sysm, -0.5, 5.0, grid=256).bands[1]
        E = E.lo + E.width * np.linspace(0.1, 0.9, 300)
        calls.clear()
        growth_value(sysm, float(E[0]))
        assert calls == [1]
        calls.clear()
        cocycle.fixed_point_density(sysm, E)
        assert calls == [256, 44]


class TestLyapunov:
    def test_free_discrete_hyperbolic(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        want = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert lyapunov(sysm, 3.0) == pytest.approx(want, abs=1e-12)

    def test_free_continuum_below_spectrum(self):
        sysm = free_cocycle(2.0)
        assert lyapunov(sysm, -1.0) == pytest.approx(1.0, abs=1e-10)

    def test_zero_on_bands(self):
        sysm = alt_cocycle()
        E = np.array([-1.0, -0.5, 1.0, 1.5])
        assert np.all(lyapunov(sysm, E) == 0.0)

    def test_positive_in_gap(self):
        sysm = alt_cocycle()
        assert lyapunov(sysm, 0.25) > 0.0


class TestRotationMonotone:
    """ids, the rotation number over pi, strictly increases across a band
    interior, whichever way the monodromy angle turns there."""

    @staticmethod
    def increments(sysm, band):
        pad = 1e-6 * band.width
        return np.diff(ids(sysm, np.linspace(band.lo + pad, band.hi - pad, 64)))

    def test_continuum_increasing(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        bs = band_spectrum(sysm, *sysm.scan_range(4.0), grid=1024)
        assert np.all(self.increments(sysm, bs.bands[1]) > 0.0)

    def test_discrete_increasing(self):
        sysm = alt_cocycle()
        bs = discrete_band_spectrum(sysm)
        assert np.all(self.increments(sysm, bs.bands[0]) > 0.0)


class TestGrowth:
    def test_free_growth_is_one(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        rep = growth_value(sysm, 1.0)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_growth_against_brute_minimax(self):
        sysm = alt_cocycle(0.5)
        E = -0.8
        theta = float(sl2.rotation_angles2(sysm.monodromy(E)))
        assert resonance_gap(theta, 50) > 1e-4
        rep = growth_value(sysm, E)
        # brute force: min over directions of sup over a long prefix orbit
        sites = np.arange(0, 2 * 3000, 1)
        pref = sysm.prefix_grid(np.array([E]), sites)[0]
        phis = np.linspace(0.0, math.pi, 720, endpoint=False)
        dirs = np.stack([np.cos(phis), np.sin(phis)])
        imgs = np.einsum("jab,bd->jad", pref, dirs)
        norms = np.sqrt(imgs[:, 0, :] ** 2 + imgs[:, 1, :] ** 2)
        brute = float(np.min(np.max(norms, axis=0)))
        assert rep.value == pytest.approx(brute, rel=0.02)

    @pytest.mark.parametrize("sysm", [
        lambda: ContinuumCocycle(load_descriptor(os.path.join(DESCRIPTORS, "v0.json"))),
        lambda: ContinuumCocycle(cosine_well_potential()),
        lambda: DiscreteCocycle(load_descriptor(
            os.path.join(DESCRIPTORS, "cos3.json")).slice(0.0)),
    ], ids=["v0", "well", "cos3"])
    def test_growth_batch_equals_single_energies(self, sysm):
        # more than one block of energies, gap energies among them
        sysm = sysm()
        E = np.linspace(-2.5, 6.0, 300)
        got = growth_values(sysm, E, t0=0.3, samples=64)
        inside = np.abs(sysm.trace(E)) < 2.0 - sl2.ELLIPTIC_MARGIN
        assert 0 < inside.sum() < E.size
        assert np.all(np.isnan(got[0][~inside]))
        want = [growth_value(sysm, e, t0=0.3, samples=64) for e in E[inside]]
        for field, values in zip(("value", "sup_dist", "base_dist", "arg_sup"), got):
            np.testing.assert_array_equal(values[inside],
                                          [getattr(r, field) for r in want])

    def test_growth_not_elliptic_raises(self):
        sysm = alt_cocycle()
        with pytest.raises(NotEllipticError):
            growth_value(sysm, 0.25)

    def test_resonance_gap(self):
        assert resonance_gap(0.5, 50) == 0.0
        assert resonance_gap(1.0 / 3.0 + 1e-6, 50) == pytest.approx(1e-6, rel=1e-6)


class TestBloch:
    def test_free_bloch_modulus(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        E = 1.0
        wave = bloch_pair(sysm, E)
        phi = math.acos(E / 2.0)
        assert wave.theta == pytest.approx(phi / (2 * math.pi), abs=1e-12)
        xs = wave.states(sysm, E, np.arange(6))
        mods = np.abs(xs[:, 0]) ** 2
        assert np.allclose(mods, 1.0 / (2 * math.sin(phi)), atol=1e-10)

    def test_eigen_relation(self):
        sysm = alt_cocycle()
        E = -1.0
        wave = bloch_pair(sysm, E)
        M = sysm.monodromy(E).astype(complex)
        lam = np.exp(2j * math.pi * wave.theta)
        assert np.allclose(M @ wave.x0, lam * wave.x0, atol=1e-10)

    def test_wedge_normalization_preserved(self):
        sysm = alt_cocycle()
        E = 1.2
        wave = bloch_pair(sysm, E)
        xs = wave.states(sysm, E, np.arange(8))
        wedges = xs[:, 0] * np.conj(xs[:, 1]) - np.conj(xs[:, 0]) * xs[:, 1]
        assert np.allclose(wedges.imag, 1.0, atol=1e-10)
        assert np.allclose(wedges.real, 0.0, atol=1e-12)


class TestParsevalAndNormBound:
    def test_free_parseval_site0(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        bs = discrete_band_spectrum(sysm)
        total = spectral_parseval(sysm, bs, 0, order=48)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_free_parseval_site5(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        bs = discrete_band_spectrum(sysm)
        total = spectral_parseval(sysm, bs, 5, order=48)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_alternating_parseval(self):
        sysm = alt_cocycle(0.5)
        bs = discrete_band_spectrum(sysm)
        for n in (0, 3):
            total = spectral_parseval(sysm, bs, n, order=48)
            assert total == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("n1", [3, 5])
    def test_parseval_matches_bloch_pair_sum(self, n1):
        # reference: the normalized Bloch pair at every quadrature node
        sysm = DiscreteCocycle(cos_family(0.3, n1).slice(0.0))
        bs = discrete_band_spectrum(sysm)
        for n in (0, 4, -3):
            want = 0.0
            for band in bs.bands:
                Es, Ws = cocycle.band_quadrature(band.lo, band.hi, 48)
                vals = []
                for e in Es:
                    x = bloch_pair(sysm, float(e)).states(sysm, float(e), [n])[0]
                    vals.append(abs(x[0]) ** 2 + abs(x[1]) ** 2)
                want += float(np.dot(vals, Ws))
            want /= 2.0 * math.pi
            got = spectral_parseval(sysm, bs, n, order=48)
            assert got == pytest.approx(want, abs=1e-12)

    def test_free_band_norm_integral(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        bs = discrete_band_spectrum(sysm)
        val = band_norm_integral(sysm, bs.bands[0], 0)
        assert val == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_alternating_band_norm_bounded(self):
        sysm = alt_cocycle(0.5)
        bs = discrete_band_spectrum(sysm)
        for band in bs.bands:
            for n in (0, 1, 2, 5):
                assert band_norm_integral(sysm, band, n) <= 1.0 + 1e-3


class TestUniformness:
    def test_free_threshold_mass(self):
        sysm = free_cocycle(2.0)
        bs = band_spectrum(sysm, -0.5, 11.0, grid=1024)
        rep = uniformness_check(sysm, bs, 1.0 / math.pi, scan=17, order=16,
                                t_samples=64)
        # density 1/(2 pi sqrt E) >= 1/pi only on E <= 1/4, mass 1/(2 pi)
        assert rep.band_deficits[0] == pytest.approx(1.0 / (2 * math.pi), abs=1e-4)
        for d in rep.band_deficits[1:]:
            assert d < 1e-6
        # total mass equals the ids at the top of the scanned spectrum
        top = bs.bands[-1].hi
        assert rep.total_mass == pytest.approx(math.sqrt(top) / math.pi, abs=1e-3)

    def test_discrete_rejected(self):
        sysm = alt_cocycle()
        bs = discrete_band_spectrum(sysm)
        with pytest.raises(ValidationError):
            uniformness_check(sysm, bs, 1.0)

    def test_density_calls_are_batched(self, monkeypatch):
        # v0 at level 0.5 (the CLI defaults): 549 scalar calls when every
        # scan point, crossing iterate and Gauss node had its own call
        sysm = ContinuumCocycle(smooth_bump_potential())
        bs = band_spectrum(sysm, -4.0, 12.0)
        calls = []

        def counted(system, E, *args, **kw):
            calls.append(np.size(E))
            return density(system, E, *args, **kw)

        monkeypatch.setattr(cocycle, "density", counted)
        rep = uniformness_check(sysm, bs, 0.5)
        assert len(rep.band_deficits) == len(bs) == 3
        # the crossing solves' iteration counts follow the last bits of the
        # band edges: 66 calls over 527 energies with the edges of the
        # former heuristic band scan, 64 over 525 with the fourth-order steps
        assert len(calls) == 61
        assert sum(calls) == 522


class TestPropertyComposition:
    @given(st.floats(0.2, 3.5), st.floats(0.0, 2.5), st.floats(0.0, 2.5))
    @settings(max_examples=10, deadline=None)
    def test_cocycle_identity_continuum(self, E, t0, dt):
        sysm = ContinuumCocycle(smooth_bump_potential())
        t1 = t0 + dt
        a = sysm.transfer(E, t0, t1)
        b = sysm.prefix(E, t1) @ np.linalg.inv(sysm.prefix(E, t0))
        assert np.allclose(a, b, atol=1e-8)

    @given(st.integers(-6, 6), st.integers(0, 9), st.floats(-1.8, 1.8))
    @settings(max_examples=20, deadline=None)
    def test_cocycle_identity_discrete(self, j0, dj, E):
        sysm = alt_cocycle()
        j1 = j0 + dj
        a = sysm.transfer(E, j0, j1)
        b = sysm.prefix(E, j1) @ np.linalg.inv(sysm.prefix(E, j0))
        assert np.allclose(a, b, atol=1e-9)
