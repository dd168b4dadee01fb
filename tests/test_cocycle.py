"""Transfer matrices, band spectra, ids, Lyapunov, growth, Bloch machinery.

Expected values come from independent routes: closed forms for the free
operator, exact algebra for small discrete periods, truncated
self-adjoint matrices for state counting, and brute-force minimax
searches for the growth functional.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal, expm

from cocycle_lab import cocycle, deform, sl2, util
from cocycle_lab.cocycle import (
    Band,
    BandSet,
    BlochWave,
    ContinuumCocycle,
    DiscreteCocycle,
    band_norm_integral,
    band_spectrum,
    bloch_pair,
    check_rotation_monotone,
    density,
    discrete_band_spectrum,
    free_block,
    growth_value,
    ids,
    lyapunov,
    resonance_gap,
    rotation_angle_at,
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
    (rtol 1e-12), an oracle independent of the Magnus engine; E may be
    complex."""
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
    sol = solve_ivp(rhs, (0.0, length), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14)
    assert sol.success
    return sol.y[:, -1].reshape(K, 2, 2)


def rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


class TestMagnusEngine:
    """The Gauss-Magnus piece propagators against independent references."""

    # worst relative errors seen over 40 random draws were 1.0e-11 (bump)
    # and 2.4e-10 (well) for the trace, 4.3e-11 for its derivative
    @given(st.sampled_from(["bump", "well"]), st.floats(1.5, 3.5),
           st.floats(0.2, 3.0), st.floats(0.2, 0.6),
           st.one_of(st.floats(-5.0, 5.0), st.floats(5.0, 1000.0)))
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
        # 35 segments, period 32.06; pieces by DOP853, gaps by expm
        base = smooth_bump_potential()
        pot = deform.pad(base, deform.PaddingSpec(0.05, 4, 2))
        E = np.array([-1.0, 0.3, 2.7, 11.0, 40.0])
        bump = dop853_monodromy(base.bases["bump"], 1.5, E)
        want = np.broadcast_to(np.eye(2), (E.shape[0], 2, 2))
        for seg in pot.segments:
            if isinstance(seg, Piece):
                blk = bump
            else:
                blk = np.stack([expm(np.array([[0.0, -e], [1.0, 0.0]]) * seg.length)
                                for e in E])
            want = blk @ want
        got = ContinuumCocycle(pot).monodromy(E)
        # worst seen: 8.2e-10
        assert rel_err(sl2.tr2(got), sl2.tr2(want)) <= 1e-8

    def test_fourth_order_convergence(self, monkeypatch):
        # an infinite tolerance keeps the first count, length x per_unit steps
        pot = cosine_well_potential()
        E = np.array([-1.5, 0.4, 3.0, 12.0])
        ref = ContinuumCocycle(pot).monodromy(E)
        monkeypatch.setattr(cocycle, "_TOL", math.inf)
        errs = []
        for per_unit in (8, 16, 32):
            monkeypatch.setattr(cocycle, "_MIN_STEPS_PER_UNIT", per_unit)
            errs.append(rel_err(ContinuumCocycle(pot).monodromy(E), ref))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0

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
        sysm = alt_cocycle()
        with pytest.raises(ResolutionError):
            band_spectrum(sysm, -3.0, 3.0, grid=4096, budget=100)

    def test_edge_signs(self):
        sysm = free_cocycle(2.0)
        bs = band_spectrum(sysm, -0.5, 11.0, grid=1024)
        assert bs.bands[0].lo_sign == 1
        assert bs.bands[0].hi_sign == -1
        assert bs.bands[1].lo_sign == -1

    def test_batched_solves_equal_solo_solves(self, monkeypatch):
        # every bracket solved alone, with its end values evaluated afresh,
        # gives the bits of the lockstep solves; the well runs the edge,
        # tangency and micro-gap solves
        sysm = ContinuumCocycle(cosine_well_potential())
        batched = band_spectrum(sysm, -4.0, 40.0)
        lockstep = util.brentq
        sizes = []

        def solo(f, a, b, fa=None, fb=None, **kw):
            sizes.append(np.size(a))
            return np.array([
                lockstep(lambda x, _: f(x, np.full(x.shape, k)), ak, bk, **kw)
                for k, (ak, bk) in enumerate(zip(a, b))])

        monkeypatch.setattr(util, "brentq", solo)
        assert band_spectrum(sysm, -4.0, 40.0) == batched
        assert len(sizes) == 3 and min(sizes) >= 1

    def test_padded_bump_trace_calls(self, monkeypatch):
        # all brackets of a stage share each trace call: 1061 calls when
        # each edge had its own scalar solve, 52 now
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
        assert len(calls) <= 100

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
    def test_continuum_increasing(self):
        sysm = ContinuumCocycle(cosine_well_potential())
        bs = band_spectrum(sysm, *sysm.scan_range(4.0), grid=1024)
        ok, worst = check_rotation_monotone(sysm, bs.bands[1])
        assert ok, worst

    def test_discrete_decreasing(self):
        sysm = alt_cocycle()
        bs = discrete_band_spectrum(sysm)
        ok, worst = check_rotation_monotone(sysm, bs.bands[0])
        assert ok, worst


class TestGrowth:
    def test_free_growth_is_one(self):
        sysm = DiscreteCocycle(free_discrete(1).slice(0.0))
        rep = growth_value(sysm, 1.0)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_growth_against_brute_minimax(self):
        sysm = alt_cocycle(0.5)
        E = -0.8
        theta = rotation_angle_at(sysm, E)
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
                Es, Ws = cocycle._edge_quad_nodes(band, 48)
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
        assert len(calls) == 66
        assert sum(calls) == 527


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
