"""Finite stages of solenoid towers.

A stage is a circle with a positive time-change density and a sampled
potential.  Covers multiply the circumference; each realization step
installs a nonpositive log-weight supported inside zero windows of the
potential, calibrated by root finding so the traversal time of each
window hits a prescribed target.  ``realize_padding`` makes both kinds
of stage: padding stages from a ``PaddingSpec`` and mixing stages from a
``UniformPadding``.  The central contract: the time-domain potential read
off a realized stage must reproduce ``deform.pad`` with the same spec.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import util
from .deform import PaddingSpec, UniformPadding, sampling_family, twist_family
from .errors import (
    DomainError,
    ProjectionError,
    RealizationError,
    ValidationError,
    reading,
    strict_int,
)
from .expr import smooth_ramp
from .potentials import ContinuumPotential, DiscreteFamily, potential_from_json

# grid and tolerance of TowerStage.check_invariants, grid of lift_closeness
_CHECK_GRID = 4096
_PERIOD_TOL = 1e-6


def ramp_profile(s, beta: float):
    """Smooth plateau on [0,1]: ramps of width beta, exactly 1 between."""
    if not 0.0 < beta <= 0.5:
        raise ValidationError(f"ramp fraction must lie in (0, 1/2], got {beta!r}")
    s = np.asarray(s, dtype=float)
    return smooth_ramp(s / beta) * smooth_ramp((1.0 - s) / beta)


@dataclass(frozen=True)
class Window:
    """One slowdown window in stage arc coordinates."""

    start: float
    length: float
    depth: float
    beta: float
    extra_time: float
    block: int


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral at the nodes of an odd-length uniform grid."""
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValidationError("cumulative Simpson needs an odd node count >= 3")
    pair = h / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    even = np.concatenate([[0.0], np.cumsum(pair)])
    odd = even[:-1] + h / 12.0 * (5.0 * y[0:-2:2] + 8.0 * y[1:-1:2] - y[2::2])
    out = np.empty(n)
    out[0::2] = even
    out[1::2] = odd
    return out


@dataclass(eq=False)
class TowerStage:
    """One stage circle: arc length, flow period, windows, parent link."""

    depth: int
    multiplicity: int
    arc_length: float
    period: float
    windows: tuple = ()
    parent: "TowerStage" = None
    potential: ContinuumPotential = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValidationError("cover multiplicity must be at least 1")
        if self.parent is None:
            if self.potential is None:
                raise ValidationError("the root stage carries the potential")
            if self.multiplicity != 1 or self.depth != 0:
                raise ValidationError("the root stage is its own 1-cover")
        else:
            want = self.multiplicity * self.parent.arc_length
            if abs(self.arc_length - want) > 1e-9 * want:
                raise ValidationError("arc length must be multiplicity * parent")
        lo, hi = -1e-12, self.arc_length + 1e-12
        marked = sorted(self.windows, key=lambda w: w.start)
        for a, b in zip(marked, marked[1:]):
            if a.start + a.length > b.start + 1e-12:
                raise ValidationError(
                    "windows of one stage must be pairwise disjoint"
                )
        for w in marked:
            if not (lo <= w.start and w.start + w.length <= hi):
                raise ValidationError("window leaves the stage circle")

    # -- sampled data -------------------------------------------------------

    def v(self, x) -> np.ndarray:
        """Sampling function: the root potential pulled back to this stage."""
        x = np.asarray(x, dtype=float)
        if self.parent is None:
            return np.asarray(self.potential(x))
        return self.parent.v(np.mod(x, self.parent.arc_length))

    @cached_property
    def _window_table(self):
        """starts, lengths, depths and betas of the windows, by start."""
        marked = sorted(self.windows, key=lambda w: w.start)
        return tuple(np.array([getattr(w, name) for w in marked])
                     for name in ("start", "length", "depth", "beta"))

    def log_w(self, x) -> np.ndarray:
        """Log time-change density: own windows plus the inherited weight.

        The windows are disjoint, so x can lie only in the one with the
        last start below it: another window reaches x only inside the
        1e-12 overlap slack, where its ramp is exactly 0.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if self.windows:
            starts, lengths, depths, betas = self._window_table
            k = np.maximum(np.searchsorted(starts, x) - 1, 0)
            s = (x - starts[k]) / lengths[k]
            inside = (s > 0.0) & (s < 1.0)
            for beta in set(betas.tolist()):
                sel = inside & (betas[k] == beta)
                if np.any(sel):
                    out[sel] = -depths[k[sel]] * ramp_profile(s[sel], beta)
        if self.parent is not None:
            out += self.parent.log_w(np.mod(x, self.parent.arc_length))
        return out

    def w(self, x) -> np.ndarray:
        return np.exp(self.log_w(x))

    @cached_property
    def time_map(self) -> "TimeMap":
        return TimeMap(self)

    def check_invariants(self):
        xs = self.arc_length * np.arange(_CHECK_GRID) / _CHECK_GRID
        if not np.all(self.w(xs) > 0.0):
            raise ValidationError("time-change density must stay positive")
        total = self.time_map.total
        if abs(total - self.period) > _PERIOD_TOL:
            raise ValidationError(
                f"flow period {total!r} disagrees with the declared {self.period!r}"
            )

    def to_json(self):
        """Tower descriptor of this stage and its parent chain."""
        return tower_to_json(self)

    def _record(self):
        rec = {
            "depth": self.depth,
            "multiplicity": self.multiplicity,
            "arc_length": self.arc_length,
            "period": self.period,
            "windows": [asdict(w) for w in self.windows],
            "meta": dict(self.meta),
        }
        if self.parent is None:
            rec["potential"] = self.potential.to_json()
        return rec


def base_stage(pot: ContinuumPotential) -> TowerStage:
    """Depth-0 stage: unit speed, circumference equal to the period."""
    return TowerStage(
        depth=0,
        multiplicity=1,
        arc_length=pot.period,
        period=pot.period,
        potential=pot,
    )


# ---------------------------------------------------------------------------
# time maps
# ---------------------------------------------------------------------------


def _all_window_arcs(stage: TowerStage):
    """(start, end, beta) of every window of every level, in stage coords."""
    out = [(w.start, w.start + w.length, w.beta) for w in stage.windows]
    if stage.parent is not None:
        Lp = stage.parent.arc_length
        for a, b, beta in _all_window_arcs(stage.parent):
            for c in range(stage.multiplicity):
                out.append((c * Lp + a, c * Lp + b, beta))
    return out


def _piece_nodes(p: float, q: float, members) -> int:
    """Odd node count resolving every ramp of the windows on [p, q]."""
    dens = max(
        ((q - p) / (beta * (b - a)) for a, b, beta in members), default=1.0
    )
    count = max(512, int(math.ceil(64.0 * dens)))
    count += count % 2
    return count + 1


def _dedupe(pts):
    pts = sorted(pts)
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > 1e-12:
            keep.append(p)
    return keep


def _merge_arcs(arcs):
    """Disjoint regions covering the arcs, each with its interior cuts.

    Cuts fall on every constituent window boundary, so a window that
    overlaps nothing is integrated on exactly its calibration grid.
    """
    if not arcs:
        return []
    arcs = sorted(arcs)
    out = []
    group = [arcs[0]]
    hi = arcs[0][1]
    for arc in arcs[1:]:
        if arc[0] <= hi + 1e-15:
            group.append(arc)
            hi = max(hi, arc[1])
        else:
            out.append(group)
            group = [arc]
            hi = arc[1]
    out.append(group)
    result = []
    for group in out:
        lo = group[0][0]
        hi = max(b for _, b, _ in group)
        cuts = _dedupe([x for a, b, _ in group for x in (a, b)])
        result.append((lo, hi, cuts, group))
    return result


class TimeMap:
    """Monotone piecewise arc-to-time table for one stage.

    Unit slope outside windows; inside each (merged) window region a
    Simpson cumulative table of 1/w.  Positions and times interconvert
    through the same node set, so flow composition is exact by
    construction.
    """

    def __init__(self, stage: TowerStage):
        L = stage.arc_length
        xs = [0.0]
        taus = [0.0]
        state = {"x": 0.0, "tau": 0.0}

        def curved(a, b, nodes):
            grid = np.linspace(a, b, nodes)
            cum = _cumulative_simpson(
                np.exp(-stage.log_w(grid)), (b - a) / (nodes - 1)
            )
            xs.extend(grid[1:].tolist())
            taus.extend((state["tau"] + cum[1:]).tolist())
            state["tau"] += cum[-1]
            state["x"] = b

        def gap(a, b):
            if not a < b:
                return
            probe = stage.log_w(np.linspace(a, b, 7))
            if np.max(np.abs(probe)) <= 1e-14:
                xs.append(b)
                taus.append(state["tau"] + (b - a))
                state["tau"] += b - a
                state["x"] = b
            else:
                curved(a, b, 2049)

        for lo, hi, cuts, group in _merge_arcs(_all_window_arcs(stage)):
            gap(state["x"], lo)
            for p, q in zip(cuts, cuts[1:]):
                members = [
                    g for g in group
                    if g[0] < q - 1e-15 and g[1] > p + 1e-15
                ]
                curved(p, q, _piece_nodes(p, q, members))
        gap(state["x"], L)
        self.arc_length = L
        self.xs = np.asarray(xs)
        self.taus = np.asarray(taus)
        self.total = float(state["tau"])

    def time_at(self, x) -> np.ndarray:
        xm = np.mod(np.asarray(x, dtype=float), self.arc_length)
        return np.interp(xm, self.xs, self.taus)

    def position_at(self, tau) -> np.ndarray:
        tm = np.mod(np.asarray(tau, dtype=float), self.total)
        return np.interp(tm, self.taus, self.xs)


def potential_trace(stage: TowerStage, t_max: float, samples: int):
    """(times, values): the potential seen along the flow started at 0."""
    if samples < 2:
        raise ValidationError("need at least two samples")
    times = np.linspace(0.0, t_max, samples)
    pos = stage.time_map.position_at(times)
    return times, np.asarray(stage.v(pos), dtype=float)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


def _require_trailing_zero(stage: TowerStage, eps0: float):
    if not eps0 > 0.0:
        raise ValidationError("zero window length must be positive")
    L = stage.arc_length
    probe = np.linspace(L - eps0, L, 257, endpoint=False)
    vals = stage.v(probe)
    if np.max(np.abs(vals)) != 0.0:
        raise RealizationError(
            "the stage potential does not vanish on the trailing window"
        )


def _inherited_members(parent: TowerStage, start: float, length: float):
    """Parent-chain windows meeting [start, start+length], child coords."""
    Lp = parent.arc_length
    ps = math.fmod(start, Lp)
    if ps < 0.0:
        ps += Lp
    shift = start - ps
    out = []
    for a, b, beta in _all_window_arcs(parent):
        for k in (-1.0, 0.0, 1.0):
            aa = a + shift + k * Lp
            bb = b + shift + k * Lp
            if bb > start + 1e-15 and aa < start + length - 1e-15:
                out.append((aa, bb, beta))
    return out


def _calibrate_window(parent: TowerStage, start: float, length: float,
                      extra: float, bound: float, beta0: float):
    """Depth and ramp of one window so its traversal gains `extra` time."""
    inherited_arcs = _inherited_members(parent, start, length)
    beta = min(beta0, 0.5)
    for _ in range(9):
        own = (start, start + length, beta)
        nodes = _piece_nodes(start, start + length, [own] + inherited_arcs)
        grid = np.linspace(start, start + length, nodes)
        inherited = np.exp(-parent.log_w(np.mod(grid, parent.arc_length)))
        h = length / (nodes - 1)
        target = _cumulative_simpson(inherited, h)[-1] + extra
        prof = ramp_profile(np.linspace(0.0, 1.0, nodes), beta)

        def gain(a):
            return _cumulative_simpson(inherited * np.exp(a * prof), h)[-1] - target

        hi = max(2.0 * bound, 1e-6)
        while gain(hi) < 0.0:
            hi *= 2.0
            if hi > 1e6:
                raise RealizationError("window cannot absorb the requested time")
        depth = util.brentq(lambda a, _: [gain(v) for v in a], 0.0, hi,
                            xtol=1e-13)
        if depth <= bound:
            return float(depth), float(beta)
        beta /= 4.0
    raise RealizationError(
        f"weight bound {bound!r} unattainable for extra time {extra!r}"
    )


def realize_padding(stage: TowerStage, spec: PaddingSpec | UniformPadding,
                    eps0: float) -> TowerStage:
    """Cover stage whose flow trace is the padding of the parent.

    2 N n copies; the trailing zero window of the last copy of block j is
    slowed so its traversal time becomes eps0 plus the block's pad length.
    A PaddingSpec makes a padding stage; a UniformPadding makes a mixing
    stage, n plain copies followed by n copies padded by delta.
    """
    _require_trailing_zero(stage, eps0)
    if not spec.delta < eps0:
        raise ValidationError("pad increment must be smaller than the window")
    Lp = stage.arc_length
    pads = spec.pad_lengths()
    bound = spec.delta / eps0 + 1e-9
    windows = []
    for j in range(2 * spec.n):
        extra = float(pads[j])
        if extra == 0.0:
            continue
        start = (j + 1) * spec.N * Lp - eps0
        depth, beta = _calibrate_window(
            stage, start, eps0, extra, bound, min(0.05, extra / 4.0)
        )
        windows.append(Window(start=start, length=eps0, depth=depth,
                              beta=beta, extra_time=extra, block=j))
    mult = 2 * spec.N * spec.n
    child = TowerStage(
        depth=stage.depth + 1,
        multiplicity=mult,
        arc_length=mult * Lp,
        period=spec.new_period(stage.period),
        windows=tuple(windows),
        parent=stage,
        meta={
            "kind": "mixing" if isinstance(spec, UniformPadding) else "padding",
            **asdict(spec),
            "eps0": eps0,
            "rho_norm": max((w.depth for w in windows), default=0.0),
        },
    )
    child.check_invariants()
    return child


# ---------------------------------------------------------------------------
# closeness and mixedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftCloseness:
    flow_gap: float
    sample_gap: float


def _in_chain(child: TowerStage, parent: TowerStage) -> bool:
    node = child
    while node is not None:
        if node is parent:
            return True
        node = node.parent
    return False


def lift_closeness(child: TowerStage, parent: TowerStage) -> LiftCloseness:
    """Sup gaps between the child and the exact lift of its ancestor.

    Oracle for the closeness of covers; checked by test_padding_closeness_bounds.
    """
    if not _in_chain(child, parent):
        raise ProjectionError("stages do not sit in one covering chain")
    xs = child.arc_length * np.arange(_CHECK_GRID) / _CHECK_GRID
    proj = np.mod(xs, parent.arc_length)
    flow_gap = float(np.max(np.abs(child.log_w(xs) - parent.log_w(proj))))
    sample_gap = float(np.max(np.abs(child.v(xs) - parent.v(proj))))
    return LiftCloseness(flow_gap=flow_gap, sample_gap=sample_gap)


def _lag_profile(child: TowerStage, parent: TowerStage, starts: int):
    """displacement_profile as a function of t, with the start points and
    the parent times of their projections (free of t) computed once."""
    if not _in_chain(child, parent):
        raise ProjectionError("stages do not sit in one covering chain")
    tm_c, tm_p = child.time_map, parent.time_map
    s = tm_c.total * np.arange(starts) / starts
    tau0 = tm_p.time_at(np.mod(tm_c.position_at(s), parent.arc_length))

    def lag(t):
        tau1 = tm_p.time_at(np.mod(tm_c.position_at(s + t), parent.arc_length))
        return np.mod((t - (tau1 - tau0)) / tm_p.total, 1.0)

    return lag


def displacement_profile(child: TowerStage, parent: TowerStage, t: float,
                         starts: int = 1024) -> np.ndarray:
    """Projected time lag (fraction of the parent period) after time t.

    Start points are uniform in flow time, which is the invariant
    measure of the stage flow.  For each start x the value is
    (t - parent time advance of the projection) / parent period, mod 1.

    Oracle for the lags mixedness_check scans; checked by
    test_mixedness_projection_identity_on_witness_set.
    """
    return _lag_profile(child, parent, starts)(t)


def _lag_cells(lag, N):
    """The cell floor(N lag + 1/2) mod N of the target c / N each lag lies
    strictly within 1/(2N) of, circularly; -1 for a lag exactly halfway
    between two targets.  Only the product N lag is rounded."""
    y = N * np.asarray(lag)
    cell = np.rint(y)
    cells = cell.astype(np.intp) % N
    cells[np.abs(y - cell) == 0.5] = -1
    return cells


def _longest_run_arc(mask: np.ndarray, total: float):
    """(start, end) of the longest circular run of True, in time units."""
    n = len(mask)
    if mask.all():
        return (0.0, total)
    if not mask.any():
        return None
    ext = np.concatenate([mask, mask])
    best_len, best_start, run = 0, 0, 0
    for i in range(2 * n):
        if ext[i]:
            run += 1
            if run > best_len and i < n + run:
                best_len, best_start = run, i - run + 1
        else:
            run = 0
    best_len = min(best_len, n)
    a = (best_start % n) * total / n
    return (a, a + best_len * total / n)


def witness_time(parent_period: float, delta: float, N: int, j: int) -> float:
    """Candidate separation time for level j of N: whole padded rounds."""
    if delta <= 0.0:
        raise DomainError("witness times need a positive pad increment")
    k = int(math.floor(j * parent_period / (N * delta)))
    return k * (parent_period + delta)


@dataclass(frozen=True)
class WitnessReport:
    j: int
    t: float
    u_measure: float
    v_measure: float
    u_arc: tuple | None  # longest arc of in-phase starts, None when empty
    v_arc: tuple | None  # longest arc of shifted starts, None when empty
    ok: bool


@dataclass(frozen=True)
class MixednessReport:
    N: int
    passed: bool
    per_j: tuple


def mixedness_check(child: TowerStage, parent: TowerStage, N: int, *,
                    starts: int = 1024, search_grid: int = 0) -> MixednessReport:
    """Certify finite-stage mixedness at level N.

    A start is in phase (u) at time t when its lag, in parent periods, lies
    within 1/(2N) of 0, and shifted (v) when within 1/(2N) of j/N: cells of
    the N lag targets, disjoint for 1 <= j < N.  Level j passes when both
    hold more than a third of the starts.  Witness times come from the
    mixing construction when the child carries that metadata with delta >
    0; otherwise (or when search_grid > 0) each level scans a uniform time
    grid and keeps the best candidate.  The start points and their parent
    times are computed once, and arcs only for the kept candidate.
    """
    if N < 1:
        raise ValidationError("mixedness level must be positive")
    lag_at = _lag_profile(child, parent, starts)
    reports = []
    use_meta = (search_grid == 0 and child.meta.get("kind") == "mixing"
                and child.meta["delta"] > 0)
    for j in range(1, max(N, 2)):
        if N == 1:
            candidates = [child.time_map.total]
        elif use_meta:
            candidates = [witness_time(parent.period, child.meta["delta"], N, j)]
        else:
            g = search_grid if search_grid > 0 else 10_000
            candidates = (child.time_map.total * np.arange(1, g + 1) / g).tolist()
        best = None
        for t in map(float, candidates):
            cells = _lag_cells(lag_at(t), N)
            masks = cells == 0, cells == j % N
            u, v = (float(np.mean(m)) for m in masks)
            if best is None or min(u, v) > min(best[2:4]):
                best = (t, masks, u, v)
            if min(best[2:4]) > 1.0 / 3.0:
                break
        t, masks, u, v = best
        reports.append(WitnessReport(
            j=j, t=t, u_measure=u, v_measure=v,
            u_arc=_longest_run_arc(masks[0], child.time_map.total),
            v_arc=_longest_run_arc(masks[1], child.time_map.total),
            ok=u > 1.0 / 3.0 and v > 1.0 / 3.0))
    return MixednessReport(
        N=N, passed=all(r.ok for r in reports), per_j=tuple(reports)
    )


# ---------------------------------------------------------------------------
# discrete tower steps
# ---------------------------------------------------------------------------


def discrete_tower_step(F: DiscreteFamily, a_prev, n_twist: int):
    """Twist, then rebase the sampling shear one refinement deeper.

    Returns (sampled family, a_next, report) with a_next = a_prev +
    n0/(n_twist n1) held as an exact rational.

    Oracle for tower closeness; checked by test_discrete_step_closeness_decreases.
    """
    if F.n0_exact is None:
        raise DomainError("tower steps need an exact parameter period")
    a_prev = Fraction(a_prev)
    unit = F.n0_exact / F.n1
    if (a_prev / unit).denominator != 1:
        raise DomainError(
            f"sampling base {a_prev} is not an integer multiple of n0/n1 = {unit}"
        )
    tw = twist_family(F, n_twist)
    a_next = a_prev + F.n0_exact / (n_twist * F.n1)
    samp = sampling_family(tw, a_next)
    t = np.linspace(0.0, float(F.n0), 48, endpoint=False)
    j = np.arange(n_twist * F.n1, dtype=float)
    v_prev = np.asarray(F.expr(t[:, None] - float(a_prev) * j[None, :], j))
    v_next = np.asarray(samp.expr(t[:, None], j[None, :]))
    gap = float(np.max(np.abs(v_next - v_prev)))
    report = {
        "sup_gap": gap,
        "step": float(a_next - a_prev),
        "a_next": a_next,
    }
    return samp, a_next, report


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def tower_to_json(stage: TowerStage) -> dict:
    chain = []
    node = stage
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()
    return {"kind": "tower", "stages": [s._record() for s in chain]}


def tower_from_json(d: dict) -> TowerStage:
    if d.get("kind") != "tower" or not d.get("stages"):
        raise ValidationError("not a tower descriptor")
    stage = None
    with reading("tower descriptor"):
        for rec in d["stages"]:
            windows = tuple(
                Window(
                    start=float(w["start"]),
                    length=float(w["length"]),
                    depth=float(w["depth"]),
                    beta=float(w["beta"]),
                    extra_time=float(w["extra_time"]),
                    block=strict_int(w["block"], "block"),
                )
                for w in rec.get("windows", ())
            )
            pot = None
            if stage is None:
                pot = potential_from_json(rec["potential"])
                if not isinstance(pot, ContinuumPotential):
                    raise ValidationError("tower roots carry continuum potentials")
            stage = TowerStage(
                depth=strict_int(rec["depth"], "depth"),
                multiplicity=strict_int(rec["multiplicity"],
                                        "multiplicity"),
                arc_length=float(rec["arc_length"]),
                period=float(rec["period"]),
                windows=windows,
                parent=stage,
                potential=pot,
                meta=dict(rec.get("meta", {})),
            )
    return stage
