"""Verification pipelines: cascade statistics, sum models, norm identities."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import cocycle as cyc
from cocycle_lab import deform, sl2
from cocycle_lab.cli import load_descriptor
from cocycle_lab.errors import (
    DomainError,
    NotEllipticError,
    PipelineCollapseError,
    ValidationError,
)
from cocycle_lab.labverify import (
    RandomModelSpec,
    _choose_pad_count,
    _composite_norms,
    carleson_b1,
    carleson_parseval,
    crooked_metric,
    good_nice_metrics,
    growth_minimax,
    random_polar_matrices,
    run_asd12,
    run_lemma22,
    wj_model,
    wj_tail_check,
)
from cocycle_lab.potentials import (
    cos_family,
    cosine_well_potential,
    free_continuum,
    free_discrete,
    smooth_bump_potential,
)

DESCRIPTORS = os.path.join(os.path.dirname(__file__), "..", "descriptors")


def bump_pot():
    return smooth_bump_potential(period=2.0, height=1.0, zero_nbhd=0.5)


@pytest.fixture(scope="module")
def cascade_report():
    """One padding step at delta = 0.05 over the full 2000-point grid."""
    return run_lemma22(bump_pot(), M=6.0, xi=0.2, C0=4.0, delta=0.05,
                       energy_grid=2000, P=1, kappa=0.02)


@pytest.fixture(scope="module")
def composite_report():
    """Standard composite run: twist(3), repeat(6), slide(4), twist(3)."""
    return run_asd12(cos_family(lam=0.2, n1=2), 0.44, 0.60, delta=0.05,
                     energy_grid=2000, t_points=24)


# ---------------------------------------------------------------------------
# padding cascade
# ---------------------------------------------------------------------------


def test_cascade_delta_zero_statistics_stay_flat():
    rep = run_lemma22(bump_pot(), M=6.0, xi=0.2, C0=4.0, delta=0.0,
                      energy_grid=400, P=2, kappa=0.02)
    assert rep.retained_fraction >= 0.999
    for step in rep.steps:
        for ev in step["growth_events"].values():
            assert ev["fraction"] == 0.0
    # pure repetition: the time-average is invariant step to step
    assert rep.max_average_gain <= 1e-8


def test_cascade_report_invariants(cascade_report):
    rep = cascade_report
    assert 0.0 <= rep.retained_fraction <= 1.0
    assert 0.0 <= rep.sup_ge_C0_fraction <= 1.0
    assert rep.measure_band == pytest.approx(2.0 / rep.grid)
    kept = rep.retained
    assert np.all(np.isfinite(rep.averages[kept]))
    assert len(rep.steps) == rep.P == 1


def test_cascade_exclusion_fraction_of_order_delta(cascade_report):
    rep = cascade_report
    f1 = rep.steps[0]["excluded_fraction"]
    # the fitted constant ties the first-step exclusion to 2 C' delta
    assert rep.cprime_fit == pytest.approx(f1 / (2.0 * rep.delta))
    assert 0.0 < f1 <= 3.0 * rep.cprime_fit * rep.delta + rep.measure_band


def test_cascade_growth_events_near_quarter(cascade_report):
    ev = cascade_report.steps[0]["growth_events"]["0.25"]
    assert ev["predicted"] == pytest.approx(0.25 / 3.0)
    assert ev["predicted"] / 2.0 <= ev["fraction"] <= ev["predicted"] * 2.0


def test_cascade_collapse_reports_step_index():
    # capped block counts cannot push the fixed-point drift below 1e-12
    with pytest.raises(PipelineCollapseError) as exc:
        run_lemma22(bump_pot(), M=6.0, xi=0.2, C0=4.0, delta=0.05,
                    energy_grid=60, P=1, kappa=1e-12,
                    n_start=8, n_cap=8, pad_cap=8)
    assert exc.value.step in (0, 1)


def test_pad_count_search_runs_only_the_product_pass(monkeypatch):
    # one block power per search and 2n padding blocks per tried n; a full
    # padding step would build every block twice
    system = cyc.ContinuumCocycle(bump_pot())
    A = system.monodromy(np.linspace(0.5, 5.5, 40))
    inner = np.abs(sl2.tr2(A)) < 2.0 - 1e-9
    E, A = np.linspace(0.5, 5.5, 40)[inner], A[inner]
    calls = {"padding_block": 0, "power2": 0}

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(mod, name, wrapper)

    counted(deform, "padding_block")
    counted(sl2, "power2")
    # no drift reaches 1e-12, so the search tries every n up to the cap
    n = _choose_pad_count(E, A, sl2.fixed_points2(A), 0.05, 256, 1e-12, 64)
    assert n == 64
    assert calls == {"padding_block": 2 * (8 + 16 + 32 + 64), "power2": 1}


def test_cascade_report_is_deterministic():
    kw = dict(M=6.0, xi=0.2, C0=4.0, delta=0.05, energy_grid=200, P=1,
              kappa=0.02)
    rep1 = run_lemma22(bump_pot(), **kw)
    rep2 = run_lemma22(bump_pot(), **kw)
    assert json.dumps(rep1.to_json(), sort_keys=True) == \
        json.dumps(rep2.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# composite twist / repeat / slide pipeline
# ---------------------------------------------------------------------------


def test_composite_delta_zero_reduces_to_repetition():
    # zero displacement: the slide stage tiles the parent values exactly,
    # so every slice agrees with the plain tripled repetition
    fam2 = deform.repeat_family(
        deform.twist_family(cos_family(lam=0.2, n1=2), 3), 6)
    slid = deform.slide_family(fam2, 0.0, 4)
    tripled = deform.repeat_family(fam2, 3)
    for t in np.linspace(-1.0, 2.0, 13):
        assert slid.slice(float(t)).values == tripled.slice(float(t)).values
    rep = run_asd12(cos_family(lam=0.2, n1=2), 0.44, 0.60, delta=0.0,
                    energy_grid=300, t_points=12)
    assert rep["resonant_fraction"] == 0.0
    assert rep["predicted_resonant"] == 0.0
    assert 0.0 < rep["excluded_fraction"] < 0.5


def test_composite_resonant_fraction_of_order_delta(composite_report):
    rep = composite_report
    predicted = rep["predicted_resonant"]
    assert predicted == pytest.approx(2.0 * rep["delta"])
    assert predicted / 3.0 <= rep["resonant_fraction"] <= predicted * 3.0


def test_composite_certificate_bad_fraction(composite_report):
    rep = composite_report
    assert rep["tau"] > 1.0  # nontrivial threshold for unimodular factors
    assert rep["bad_fraction"] < rep["certificate_bound"]
    assert rep["certificate_bound"] == pytest.approx(rep["C0"] ** -0.5)


def test_composite_growth_and_closeness_are_finite(composite_report):
    rep = composite_report
    assert rep["min_inf_sup"] > 0.0
    assert np.isfinite(rep["c1_closeness"])
    assert np.isfinite(rep["avg_dist_max"])
    assert 0.0 < rep["excluded_fraction"] < 1.0


def test_composite_collapse_on_empty_window():
    # a window far above the elliptic range of the composite excludes all
    with pytest.raises(PipelineCollapseError):
        run_asd12(cos_family(lam=0.2, n1=2), 3.5, 3.9, delta=0.05,
                  energy_grid=40, t_points=6)


def _per_slice_norms(family, ts, energies, block_len):
    """Sup norms, block norms and monodromies read off each slice's own
    prefix grid, one slice at a time."""
    sups, blocks, monos = [], [], []
    for t in ts:
        sysm = cyc.DiscreteCocycle(family.slice(float(t)))
        cuts = range(0, sysm.sites + 1, block_len)
        with np.errstate(all="ignore"):
            pref = sysm.prefix_grid(energies, np.arange(sysm.sites + 1))
            sups.append(np.max(sl2.norms2(pref[:, 1:]), axis=1))
            blocks.append([sl2.norms2(sl2.mul2(pref[:, b], sl2.inv2(pref[:, a])))
                           for a, b in zip(cuts, cuts[1:])])
        monos.append(pref[:, -1])
    return np.array(sups), np.array(blocks).swapaxes(0, 1), np.array(monos)


@pytest.mark.parametrize("family, window", [
    (load_descriptor(os.path.join(DESCRIPTORS, "cos2.json")), (0.3, 0.7)),
    # the composite family and windows of the cli-discrete benchmark
    (cos_family(lam=0.2, n1=2), (0.42, 0.58)),
    (cos_family(lam=0.2, n1=2), (0.47, 0.64)),
])
def test_composite_pass_equals_per_slice_prefix_grids(family, window):
    fam3 = deform.slide_family(deform.repeat_family(
        deform.twist_family(family, 3), 6), 0.05, 4)
    fam4 = deform.twist_family(fam3, 3)
    energies = window[0] + (window[1] - window[0]) * (np.arange(60) + 0.5) / 60
    ts = -1.0 + 3.0 * np.arange(24) / 24
    got = _composite_norms(fam4, ts, energies, fam3.n1)
    want = _per_slice_norms(fam4, ts, energies, fam3.n1)
    assert got[1].shape == (fam4.n1 // fam3.n1, 24, 60)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def test_composite_report_is_deterministic():
    kw = dict(delta=0.05, energy_grid=200, t_points=8)
    rep1 = run_asd12(cos_family(lam=0.2, n1=2), 0.44, 0.60, **kw)
    rep2 = run_asd12(cos_family(lam=0.2, n1=2), 0.44, 0.60, **kw)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


# ---------------------------------------------------------------------------
# accumulated-sum surrogate model
# ---------------------------------------------------------------------------


def test_wj_spec_validation():
    with pytest.raises(ValidationError):
        RandomModelSpec(delta=0.3, R=10.0, cprime=1.0, P=2, trials=10, seed=1)
    with pytest.raises(ValidationError):
        RandomModelSpec(delta=-0.1, R=10.0, cprime=0.2, P=2, trials=10, seed=1)
    with pytest.raises(ValidationError):
        RandomModelSpec(delta=0.01, R=10.0, cprime=0.2, P=2, trials=0, seed=1)


def test_wj_tail_law_endpoints():
    spec = RandomModelSpec(delta=0.01, R=100.0, cprime=0.2, P=4,
                           trials=100, seed=5)
    # head probability is exactly 1/12 independent of C'
    assert spec.tail_probability(spec.w_min) == pytest.approx(1.0 / 12.0)
    assert spec.tail_probability(0.0) == pytest.approx(1.0 / 12.0)
    assert spec.tail_probability(spec.w_max * 1.01) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    w1=st.floats(min_value=1e-3, max_value=30.0),
    w2=st.floats(min_value=1e-3, max_value=30.0),
)
def test_wj_tail_probability_monotone(w1, w2):
    spec = RandomModelSpec(delta=0.01, R=100.0, cprime=0.2, P=4,
                           trials=100, seed=5)
    lo, hi = min(w1, w2), max(w1, w2)
    assert spec.tail_probability(lo) >= spec.tail_probability(hi)


def test_wj_p_below_decreasing_as_delta_halves():
    xi = 0.2
    values = []
    for delta in (0.02, 0.01, 0.005):
        spec = RandomModelSpec(delta=delta, R=100.0, cprime=0.2,
                               P=int(xi / delta), trials=10**5, seed=42)
        values.append(wj_model(spec, C0=2.0)["p_below_C0"])
    assert values[0] > values[1] > values[2]


def test_wj_zero_terms_sum_is_zero():
    spec = RandomModelSpec(delta=0.01, R=100.0, cprime=0.2, P=0,
                           trials=1000, seed=1)
    rep = wj_model(spec, C0=2.0)
    assert rep["mean_sum"] == 0.0
    assert rep["p_below_C0"] == 1.0


def test_wj_empirical_tail_within_three_sigma():
    spec = RandomModelSpec(delta=0.01, R=100.0, cprime=0.2, P=20,
                           trials=10**5, seed=7)
    rep = wj_tail_check(spec, [10.0, 50.0, 200.0, 1000.0])
    assert all(row["within_3sigma"] for row in rep["rows"])


def test_wj_draws_reproduce_for_fixed_seed():
    spec = RandomModelSpec(delta=0.01, R=100.0, cprime=0.2, P=5,
                           trials=500, seed=99)
    s1, w1 = spec.draw_sums()
    s2, w2 = spec.draw_sums()
    assert np.array_equal(s1, s2) and np.array_equal(w1, w2)
    other = RandomModelSpec(delta=0.01, R=100.0, cprime=0.2, P=5,
                            trials=500, seed=100)
    assert not np.array_equal(other.draw_sums()[0], s1)


# ---------------------------------------------------------------------------
# rotation-averaged norm identity
# ---------------------------------------------------------------------------


def test_parseval_identity_factors():
    rep = carleson_parseval([np.eye(2)] * 3, grid=256)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0


def test_parseval_single_diagonal_factor():
    lam = 0.27
    a = np.diag([math.exp(lam), math.exp(-lam)])
    rep = carleson_parseval([a], grid=64)
    assert rep["gap"] <= 1e-10  # integrand constant: norms ignore rotations


def test_parseval_random_instances_small_gap():
    rng = np.random.default_rng(17)
    for trial in range(20):
        count = int(rng.integers(1, 7))
        mats = random_polar_matrices(count, 0.3, seed=1000 + trial)
        rep = carleson_parseval(mats, grid=2**14)
        assert rep["gap"] <= 1e-6


def test_parseval_gap_does_not_grow_with_grid():
    mats = random_polar_matrices(4, 0.3, seed=11)
    g1 = carleson_parseval(mats, grid=2**10)["gap"]
    g2 = carleson_parseval(mats, grid=2**14)["gap"]
    assert g2 <= g1 + 1e-9


def test_parseval_rejects_non_unimodular():
    with pytest.raises(ValidationError):
        carleson_parseval([np.diag([2.0, 1.0])], grid=64)


# ---------------------------------------------------------------------------
# first-order stretch expansion
# ---------------------------------------------------------------------------


def test_b1_zero_rates_reduce_to_rotation():
    rep = carleson_b1([0.0, 0.0, 0.0], [0.3, 0.7, 0.11], theta=0.21)
    assert np.max(np.abs(np.array(rep["b1"]))) == 0.0
    assert rep["secant_error"] <= 1e-6  # rounding only: A(s) = B0 exactly
    b0 = np.array(rep["b0"])
    ang = 2.0 * math.pi * (rep["alpha_n"] + 3 * 0.21)
    expect = np.array([[math.cos(ang), -math.sin(ang)],
                       [math.sin(ang), math.cos(ang)]])
    assert np.allclose(b0, expect, atol=1e-12)


def test_b1_single_rate_matches_closed_form():
    # with one active rate the derivative is B0 times a reflection-type
    # matrix in the doubled angle 4 pi (alpha_j + j theta)
    n, j, lam, theta = 5, 2, 0.9, 0.147
    lams = [0.0] * n
    lams[j] = lam
    betas = [0.13, 0.41, 0.07, 0.55, 0.33]
    rep = carleson_b1(lams, betas, theta=theta, n=n)
    b0 = np.array(rep["b0"])
    b1 = np.array(rep["b1"])
    x = 4.0 * math.pi * (sum(betas[: j + 1]) + (j + 1) * theta)
    block = np.array([[math.cos(x), -math.sin(x)],
                      [-math.sin(x), -math.cos(x)]])
    assert np.max(np.abs(np.linalg.inv(b0) @ b1 - lam * block)) <= 1e-12


def test_b1_secant_error_bounded_over_theta_grid():
    rng = np.random.default_rng(3)
    s = 1e-3
    for theta in np.linspace(0.0, 1.0, 9):
        lams = rng.random(32) * 0.5
        betas = rng.random(32)
        rep = carleson_b1(list(lams), list(betas), theta=float(theta), s=s)
        total = float(np.sum(lams))
        assert rep["secant_error"] <= 0.5 * total * total * math.exp(s * total)


def test_b1_validation():
    with pytest.raises(ValidationError):
        carleson_b1([0.1], [0.2, 0.3], theta=0.1)
    with pytest.raises(ValidationError):
        carleson_b1([0.1, 0.2], [0.2, 0.3], theta=0.1, n=3)
    with pytest.raises(ValidationError):
        carleson_b1([-0.1], [0.2], theta=0.1)


# ---------------------------------------------------------------------------
# robust-growth and spectral-quality metrics
# ---------------------------------------------------------------------------


def test_crooked_free_potential_only_at_unit_threshold():
    free = free_continuum(period=1.0)
    assert crooked_metric(free, eps1=0.1, C1=1.0, M=4.0)["crooked"]
    rep = crooked_metric(free, eps1=0.1, C1=1.5, M=4.0)
    assert not rep["crooked"]
    assert rep["passing_fraction"] == 0.0


def test_crooked_passing_fraction_monotone_in_threshold():
    v1 = deform.pad(bump_pot(), deform.PaddingSpec(delta=0.05, N=4, n=2))
    fracs = [
        crooked_metric(v1, eps1=0.1, C1=c1, M=4.0, per_band=8,
                       t_samples=64, basepoints=8)["passing_fraction"]
        for c1 in (1.0, 1.02, 1.05)
    ]
    assert fracs[0] >= fracs[1] >= fracs[2]
    assert fracs[0] == 1.0


def test_crooked_from_cascade_constant():
    # the reduction constant: C0 = C1^2 C / eps1 with C measured at step 0
    pot = bump_pot()
    rep = run_lemma22(pot, M=4.0, xi=0.2, C0=4.0, delta=0.05,
                      energy_grid=400, P=1, kappa=0.02)
    eps1 = 0.25
    c_const = rep.c_step0 + rep.kappa * rep.P
    c1 = math.sqrt(rep.C0 * eps1 / c_const)
    v1 = deform.pad(pot, deform.PaddingSpec(delta=0.05, N=4, n=2))
    crk = crooked_metric(v1, eps1=eps1, C1=c1, M=4.0, per_band=8,
                         t_samples=96, basepoints=12)
    assert crk["crooked"]


def test_good_nice_free_continuum():
    rep = good_nice_metrics(free_continuum(period=1.0), eps=1e-6, M=4.0)
    assert rep["sup_L"] <= 1e-10
    assert rep["ids_deficit"] <= 1e-10
    assert rep["good"] and rep["nice"]


def test_good_nice_free_discrete():
    rep = good_nice_metrics(free_discrete(period=1), eps=1e-4, M=1.0)
    assert rep["sup_L"] <= 1e-10
    assert rep["ids_deficit"] <= 1e-4
    assert rep["good"] and rep["nice"]


@pytest.mark.parametrize("n1", [3, 5])
def test_good_nice_discrete_ids_deficit(n1):
    # the bandwise integral of the exact section density meets the ids at
    # the cap to rounding; a finite-difference density left 2.9e-5 (cos3)
    rep = good_nice_metrics(cos_family(0.3, n1), eps=1e-3, M=10.0)
    assert rep["ids_at_M"] == 1.0
    assert rep["ids_deficit"] <= 1e-10


@pytest.mark.parametrize("pot, period, M, bound", [
    pytest.param(cos_family(0.3, 3), 3, 1.0, 1e-11, id="1.0"),
    pytest.param(cos_family(0.3, 3), 3, 0.5, 1e-11, id="0.5"),
    pytest.param(bump_pot(), 2.0, 5.0, 1e-10, id="v0-5.0"),
    pytest.param(cosine_well_potential(3.0, 2.0, 1.0), 3.0, 12.0, 1e-10,
                 id="well-12.0"),
])
def test_good_nice_ids_deficit_with_capped_band(pot, period, M, bound):
    # the cap cuts a band (cos3) or the scan clips one at M (the bump,
    # the well); the sqrt map of band_quadrature is smooth at a regular
    # end: 3.2e-13, 3.1e-13, 6.1e-12 and 3.6e-12 here, where a cosine map
    # with the midpoint rule left 6.7e-9 (bump) and 6.1e-9 (well)
    rep = good_nice_metrics(pot, eps=1e-3, M=M)
    # M sits inside a band: the IDS there is off the gap values j / period
    levels = rep["ids_at_M"] * period
    assert abs(levels - round(levels)) > 1e-6
    assert rep["ids_deficit"] <= bound


def test_ids_integral_raises_off_the_spectrum(monkeypatch):
    # a quadrature node in a gap has no density; it is not read as zero
    real = cyc.discrete_band_spectrum

    def widened(system, **kw):
        bs = real(system, **kw)
        first = dataclasses.replace(bs.bands[0], lo=bs.bands[0].lo - 0.1)
        return dataclasses.replace(bs, bands=(first,) + bs.bands[1:])
    monkeypatch.setattr(cyc, "discrete_band_spectrum", widened)
    with pytest.raises(NotEllipticError):
        good_nice_metrics(cos_family(0.3, 3), eps=1e-3, M=10.0)


def test_good_for_every_eps_on_periodic_bands():
    # the exponent vanishes identically on band interiors, so any
    # positive tolerance certifies goodness
    rep = good_nice_metrics(bump_pot(), eps=1e-12, M=5.0)
    assert rep["sup_L"] == 0.0
    assert rep["good"]


# ---------------------------------------------------------------------------
# brute-force growth minimax
# ---------------------------------------------------------------------------


def band_energies_without_resonance(system, e_max, count):
    lo, _ = system.scan_range(e_max)
    bands = cyc.band_spectrum(system, lo, e_max)
    picked = []
    for band in bands.bands:
        grid = band.lo + (band.hi - band.lo) * (np.arange(16) + 0.5) / 16
        for e in grid:
            mono = system.monodromy(np.array([float(e)]))
            if abs(float(sl2.tr2(mono)[0])) >= 2.0 - 1e-6:
                continue
            theta = float(sl2.rotation_angles2(mono)[0])
            if cyc.resonance_gap(theta, 50) >= 1e-4:
                picked.append(float(e))
    return picked[:count]


def test_minimax_matches_growth_functional():
    system = cyc.ContinuumCocycle(bump_pot())
    energies = band_energies_without_resonance(system, 6.0, 4)
    assert len(energies) == 4
    for e in energies:
        rep = growth_minimax(system, e)
        assert rep["rel_gap"] <= 0.02
        assert rep["oracle"] >= 1.0 - 1e-9  # time zero already contributes


def test_minimax_rejects_gap_energy():
    system = cyc.ContinuumCocycle(bump_pot())
    with pytest.raises(DomainError):
        growth_minimax(system, 2.9)  # inside the first spectral gap
