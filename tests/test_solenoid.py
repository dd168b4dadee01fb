"""Tower stages: flows, realizations, closeness, mixedness, descriptors."""

from fractions import Fraction

import numpy as np
import pytest

from cocycle_lab import deform, potentials, solenoid as sol
from cocycle_lab.expr import Const
from cocycle_lab.errors import (
    DomainError,
    ProjectionError,
    RealizationError,
    ValidationError,
)


def bump_pot():
    return potentials.smooth_bump_potential(period=2.0, height=1.0,
                                            zero_nbhd=0.5)


def flow(stage, x, t):
    """Position after flowing for time t from arc point x."""
    tm = stage.time_map
    return tm.position_at(tm.time_at(x) + np.asarray(t, dtype=float))


def mixing_child(stage, delta, n, eps0):
    return sol.realize_padding(stage, deform.UniformPadding(delta, n), eps0)


def padding_child(spec=None, eps0=0.4):
    spec = spec or deform.PaddingSpec(delta=0.3, N=2, n=2)
    stage = sol.base_stage(bump_pot())
    return stage, sol.realize_padding(stage, spec, eps0), spec


# -- quadrature -------------------------------------------------------------


def test_cumulative_simpson_cubic_exact_on_panels():
    h = 0.01
    x = np.arange(201) * h
    y = x**3 - 2.0 * x + 1.0
    want = x**4 / 4.0 - x**2 + x
    got = sol._cumulative_simpson(y, h)
    assert np.max(np.abs(got[::2] - want[::2])) < 1e-12
    quad = sol._cumulative_simpson(x**2, h)
    assert np.max(np.abs(quad - x**3 / 3.0)) < 1e-12


def test_cumulative_simpson_sin():
    x = np.linspace(0.0, 3.0, 513)
    got = sol._cumulative_simpson(np.sin(x), x[1] - x[0])
    assert np.max(np.abs(got - (1.0 - np.cos(x)))) < 1e-9


def test_cumulative_simpson_needs_odd():
    with pytest.raises(ValidationError):
        sol._cumulative_simpson(np.zeros(4), 0.1)


def test_ramp_profile_plateau_and_edges():
    prof = sol.ramp_profile(np.array([0.0, 0.1, 0.5, 0.9, 1.0]), 0.1)
    assert prof[0] == 0.0 and prof[-1] == 0.0
    assert prof[1] == 1.0 and prof[2] == 1.0 and prof[3] == 1.0
    mid = sol.ramp_profile(0.05, 0.1)
    assert 0.0 < float(mid) < 1.0
    with pytest.raises(ValidationError):
        sol.ramp_profile(0.3, 0.7)


# -- base flows -------------------------------------------------------------


def test_unit_stage_flow_is_rotation():
    stage = sol.base_stage(bump_pot())
    x = np.array([0.0, 0.3, 1.9])
    got = flow(stage, 0.3, 5.25)
    assert abs(float(got) - np.mod(0.3 + 5.25, 2.0)) < 1e-12
    times, vals = sol.potential_trace(stage, 4.0, 257)
    assert np.max(np.abs(vals - stage.potential(times))) < 1e-12


def test_constant_double_speed_stage():
    class DoubleSpeed(sol.TowerStage):
        def log_w(self, x):
            return np.log(2.0) + 0.0 * np.asarray(x, dtype=float)

    pot = bump_pot()
    stage = DoubleSpeed(depth=0, multiplicity=1, arc_length=2.0, period=1.0,
                        potential=pot)
    stage.check_invariants()
    assert abs(stage.time_map.total - 1.0) < 1e-12
    assert abs(float(flow(stage, 0.1, 0.4)) - 0.9) < 1e-10


def test_flow_additivity_random():
    _, child, _ = padding_child()
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(0.0, child.arc_length)
        t1, t2 = rng.uniform(0.0, 2.0 * child.period, 2)
        one = flow(child, float(flow(child, x, t1)), t2)
        two = flow(child, x, t1 + t2)
        assert abs(float(one) - float(two)) < 1e-9


def test_time_map_inverts_itself():
    _, child, _ = padding_child()
    tm = child.time_map
    tau = np.linspace(0.0, tm.total, 777, endpoint=False)
    back = tm.time_at(tm.position_at(tau))
    assert np.max(np.abs(back - tau)) < 1e-10


# -- stage validation -------------------------------------------------------


def test_window_overlap_rejected():
    stage = sol.base_stage(bump_pot())
    w = sol.Window(start=1.0, length=0.5, depth=0.1, beta=0.1,
                   extra_time=0.01, block=0)
    v = sol.Window(start=1.3, length=0.5, depth=0.1, beta=0.1,
                   extra_time=0.01, block=1)
    with pytest.raises(ValidationError):
        sol.TowerStage(depth=1, multiplicity=1, arc_length=2.0, period=2.0,
                       windows=(w, v), parent=stage)
    with pytest.raises(ValidationError):
        sol.TowerStage(depth=1, multiplicity=1, arc_length=2.0, period=2.0,
                       windows=(sol.Window(start=1.8, length=0.5, depth=0.1,
                                           beta=0.1, extra_time=0.01,
                                           block=0),),
                       parent=stage)


def test_root_carries_potential():
    with pytest.raises(ValidationError):
        sol.TowerStage(depth=0, multiplicity=1, arc_length=2.0, period=2.0)


# -- padding realization ----------------------------------------------------


def test_padding_trace_matches_symbolic_pad():
    spec = deform.PaddingSpec(delta=0.3, N=2, n=2)
    stage, child, _ = padding_child(spec)
    padded = deform.pad(bump_pot(), spec)
    assert abs(child.period - spec.new_period(2.0)) < 1e-8
    assert abs(child.period - padded.period) < 1e-8
    times, vals = sol.potential_trace(child, child.period, 4096)
    assert np.max(np.abs(vals - padded(times))) < 1e-6


def test_padding_structure_and_weight_bound():
    spec = deform.PaddingSpec(delta=0.3, N=2, n=2)
    stage, child, _ = padding_child(spec)
    assert child.multiplicity == 2 * spec.N * spec.n
    assert len(child.windows) == 2 * spec.n - 1
    bound = spec.delta / 0.4 + 1e-9
    # the root carries no weight, so the sup of |log w| is the child's own
    rho = child.meta["rho_norm"]
    assert 0.0 < rho <= bound
    xs = np.linspace(0.0, child.arc_length, 4097)
    assert np.max(np.abs(child.log_w(xs))) == rho
    child.check_invariants()


def test_padding_period_equals_time_integral():
    _, child, _ = padding_child()
    grid = np.linspace(0.0, child.arc_length, 65537)
    h = grid[1] - grid[0]
    total = sol._cumulative_simpson(np.exp(-child.log_w(grid)), h)[-1]
    assert abs(total - child.period) < 1e-6


def test_padding_window_time_exact():
    spec = deform.PaddingSpec(delta=0.3, N=2, n=2)
    _, child, _ = padding_child(spec)
    tm = child.time_map
    for w in child.windows:
        ends = np.interp([w.start, w.start + w.length], tm.xs, tm.taus)
        span = ends[1] - ends[0]
        assert abs(float(span) - (w.length + w.extra_time)) < 1e-10


def test_padding_preconditions():
    stage = sol.base_stage(bump_pot())
    spec = deform.PaddingSpec(delta=0.3, N=2, n=2)
    with pytest.raises(RealizationError):
        sol.realize_padding(stage, spec, 0.7)
    with pytest.raises(ValidationError):
        sol.realize_padding(stage, spec, 0.2)
    rough = potentials.ContinuumPotential(
        period=2.0,
        segments=(potentials.Piece(base="flat", length=2.0),),
        bases={"flat": Const(0.3)},
    )
    with pytest.raises(RealizationError):
        sol.realize_padding(sol.base_stage(rough), spec, 0.4)


# -- covers and closeness ---------------------------------------------------


def test_pure_cover_and_trivial_closeness():
    # a mixing stage without pads is the pure cover: the exact lift
    stage = sol.base_stage(bump_pot())
    cover = mixing_child(stage, 0.0, 3, 0.4)
    assert cover.arc_length == 12.0 and cover.period == 12.0
    xs = np.linspace(0.0, cover.arc_length, 1001)
    np.testing.assert_array_equal(cover.log_w(xs), np.zeros(xs.shape))
    np.testing.assert_array_equal(cover.v(xs), stage.v(np.mod(xs, 2.0)))
    rep = sol.lift_closeness(cover, stage)
    assert rep.flow_gap == 0.0 and rep.sample_gap == 0.0
    rep_self = sol.lift_closeness(stage, stage)
    assert rep_self.flow_gap == 0.0 and rep_self.sample_gap == 0.0


def test_padding_closeness_bounds():
    spec = deform.PaddingSpec(delta=0.3, N=2, n=2)
    stage, child, _ = padding_child(spec)
    rep = sol.lift_closeness(child, stage)
    assert rep.sample_gap == 0.0
    assert rep.flow_gap <= spec.delta / 0.4 + 1e-9
    assert rep.flow_gap > 0.0


def test_unrelated_stages_raise():
    a = sol.base_stage(bump_pot())
    b = sol.base_stage(potentials.smooth_bump_potential(period=3.0,
                                                        zero_nbhd=1.0))
    with pytest.raises(ProjectionError):
        sol.lift_closeness(b, a)
    with pytest.raises(ProjectionError):
        sol.displacement_profile(b, a, 1.0)


# -- mixing realization -----------------------------------------------------


def test_mixing_trace_matches_pad_simple():
    stage = sol.base_stage(bump_pot())
    child = mixing_child(stage, 0.25, 3, 0.4)
    padded = deform.pad(bump_pot(), deform.UniformPadding(0.25, 3))
    assert child.multiplicity == 6
    assert abs(child.period - padded.period) < 1e-8
    # windows sit after the padded copies, labelled by their block index
    assert [w.block for w in child.windows] == [3, 4, 5]
    assert child.meta["kind"] == "mixing" and "N" not in child.meta
    times, vals = sol.potential_trace(child, child.period, 4096)
    assert np.max(np.abs(vals - padded(times))) < 1e-6


def test_mixing_zero_delta_is_pure_cover():
    stage = sol.base_stage(bump_pot())
    child = mixing_child(stage, 0.0, 2, 0.4)
    assert len(child.windows) == 0
    assert child.period == 4 * stage.period
    rep = sol.lift_closeness(child, stage)
    assert rep.flow_gap == 0.0 and rep.sample_gap == 0.0


def test_mixedness_of_mixing_stage():
    stage = sol.base_stage(bump_pot())
    child = mixing_child(stage, 0.25, 32, 0.4)
    report = sol.mixedness_check(child, stage, 4)
    assert report.passed
    for rec in report.per_j:
        assert rec.u_measure > 1.0 / 3.0
        assert rec.v_measure > 1.0 / 3.0
        assert rec.u_arc and rec.v_arc


def test_mixedness_projection_identity_on_witness_set():
    stage = sol.base_stage(bump_pot())
    child = mixing_child(stage, 0.25, 32, 0.4)
    j, big_n = 2, 4
    t = sol.witness_time(stage.period, 0.25, big_n, j)
    lags = sol.displacement_profile(child, stage, t, starts=512)
    hits = np.where(np.abs(lags - j / big_n) < 1e-6)[0]
    assert len(hits) > 0
    tm = child.time_map
    for idx in hits[:5]:
        x0 = float(tm.position_at(tm.total * idx / 512))
        x1 = float(flow(child, x0, t))
        shadow = flow(stage, x0 % stage.arc_length,
                               t - lags[idx] * stage.period)
        gap = abs(float(shadow) - x1 % stage.arc_length)
        assert min(gap, stage.arc_length - gap) < 1e-6


def test_trivial_cover_passes_level_one():
    stage = sol.base_stage(bump_pot())
    report = sol.mixedness_check(stage, stage, 1)
    assert report.passed and report.per_j[0].j == 1


@pytest.mark.parametrize("N, starts, search_grid", [
    (2, 256, 64),
    # the default search grid: every lag of the pure 4-cover sits at 0, and
    # the in-phase and shifted windows are disjoint, so no time fills both
    (2, 64, 10_000),
    (3, 64, 10_000),
])
def test_pure_cover_is_not_mixed(N, starts, search_grid):
    stage = sol.base_stage(bump_pot())
    cover = mixing_child(stage, 0.0, 2, 0.4)
    report = sol.mixedness_check(cover, stage, N, starts=starts,
                                 search_grid=search_grid)
    assert not report.passed
    assert all(r.v_measure == 0.0 for r in report.per_j)


def test_lag_cells_keep_the_strict_window():
    # a lag exactly 1/(2N) from a target is within 1/(2N) of no target, so
    # it is in neither the in-phase mask nor a shifted one
    N = 4
    edges = (np.arange(N) + 0.5) / N
    assert np.all(sol._lag_cells(edges, N) == -1)
    assert np.all(sol._lag_cells(np.nextafter(edges, 0.0), N) == np.arange(N))
    assert np.all(sol._lag_cells(np.nextafter(edges, 1.0), N)
                  == (np.arange(N) + 1) % N)
    # elsewhere a lag is in the cell of target c exactly when its circular
    # distance to c / N is below 1/(2N)
    lag = np.random.default_rng(5).random(4096)
    for N in (1, 2, 3, 7):
        cells = sol._lag_cells(lag, N)
        for c in range(N):
            near = np.abs(np.mod(lag - c / N + 0.5, 1.0) - 0.5) < 0.5 / N
            assert np.array_equal(cells == c, near)


# -- stacked realizations ---------------------------------------------------


def test_two_level_tower_nested_windows():
    stage = sol.base_stage(bump_pot())
    mid = sol.realize_padding(stage, deform.PaddingSpec(delta=0.1, N=1, n=2),
                              0.4)
    top = mixing_child(mid, 0.05, 2, 0.3)
    top.check_invariants()
    rep = sol.lift_closeness(top, stage)
    assert rep.sample_gap == 0.0
    assert rep.flow_gap > 0.0
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(0.0, top.arc_length)
        t1, t2 = rng.uniform(0.0, top.period, 2)
        one = flow(top, float(flow(top, x, t1)), t2)
        two = flow(top, x, t1 + t2)
        assert abs(float(one) - float(two)) < 1e-9


# -- discrete tower steps ---------------------------------------------------


def test_discrete_step_exact_arithmetic():
    fam = potentials.cos_family(lam=0.4, n1=2)
    child, a1, rep = sol.discrete_tower_step(fam, 0, 4)
    assert a1 == Fraction(1, 8)
    assert rep["a_next"] == a1
    assert child.n1 == 8
    grand, a2, _ = sol.discrete_tower_step(child, a1, 4)
    assert a2 == Fraction(1, 8) + Fraction(1, 32)
    assert a2.denominator == 32
    assert grand.n1 == 32


def test_discrete_step_closeness_decreases():
    fam = potentials.cos_family(lam=0.4, n1=2)
    gaps = []
    for n in (4, 8, 16, 32):
        _, _, rep = sol.discrete_tower_step(fam, 0, n)
        gaps.append(rep["sup_gap"])
    assert all(g > 0.0 for g in gaps)
    assert all(b < 0.7 * a for a, b in zip(gaps, gaps[1:]))


def test_discrete_step_preconditions():
    fam = potentials.cos_family(lam=0.4, n1=2)
    with pytest.raises(DomainError):
        sol.discrete_tower_step(fam, Fraction(1, 3), 4)
    bare = potentials.DiscreteFamily(n0=1.0, n1=2, expr=fam.expr)
    with pytest.raises(DomainError):
        sol.discrete_tower_step(bare, 0, 4)


# -- descriptors ------------------------------------------------------------


def test_tower_json_round_trip():
    stage, child, _ = padding_child()
    doc = sol.tower_to_json(child)
    assert doc["kind"] == "tower" and len(doc["stages"]) == 2
    back = sol.tower_from_json(doc)
    xs = np.linspace(0.0, child.arc_length, 513)
    assert np.max(np.abs(back.log_w(xs) - child.log_w(xs))) == 0.0
    assert np.max(np.abs(back.v(xs) - child.v(xs))) == 0.0
    assert back.period == child.period
    t, v1 = sol.potential_trace(child, child.period, 512)
    _, v2 = sol.potential_trace(back, child.period, 512)
    assert np.max(np.abs(v1 - v2)) == 0.0


def test_tower_json_rejects_junk():
    with pytest.raises(ValidationError):
        sol.tower_from_json({"kind": "tower", "stages": []})
    with pytest.raises(ValidationError):
        sol.tower_from_json({"kind": "potential"})
