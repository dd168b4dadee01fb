"""Desk-scale verification pipelines producing machine-checkable reports.

Each entry point reruns one quantitative construction at laboratory size:
the padding cascade over an energy grid, the twist/repeat/slide composite
for discrete families, a random surrogate for the accumulated growth sums,
rotation-sandwich norm identities, and threshold metrics for growth and
spectral quality.  Reports are values, dicts or dataclasses of numbers
and arrays with nan for an undefined statistic; ``util.plain`` encodes
every report for the command line, writing nan as null.

Everything here is deterministic given its inputs; stochastic routines
take an explicit seed and use a counter-based generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import sl2
from . import cocycle as cyc
from . import deform
from .errors import (
    DomainError,
    PipelineCollapseError,
    ValidationError,
)
from .potentials import ContinuumPotential, DiscreteFamily

__all__ = [
    "Lemma22Report",
    "RandomModelSpec",
    "run_lemma22",
    "run_asd12",
    "wj_model",
    "wj_tail_check",
    "carleson_parseval",
    "random_polar_matrices",
    "carleson_b1",
    "crooked_metric",
    "good_nice_metrics",
    "growth_minimax",
]

_I2 = np.eye(2)
# elliptic placeholder for excluded rows, keeps batch operations tame
_SAFE_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _dist_to_int(x):
    """Distance from x to the nearest integer, elementwise."""
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.round(x))


def _orbit_max_gap(theta, count):
    """Largest circular gap left by the orbit {k theta mod 1 : k < count}.

    theta is a 1-d array of angles in turns; returns one gap per row.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k = np.arange(count, dtype=float)
    orbit = np.mod(theta[:, None] * k[None, :], 1.0)
    orbit.sort(axis=1)
    inner = np.diff(orbit, axis=1).max(axis=1) if count > 1 else np.ones(len(theta))
    wrap = 1.0 - orbit[:, -1] + orbit[:, 0]
    return np.maximum(inner, wrap)


def _dist_to_base(u):
    """Hyperbolic distance from each upper-half-plane point to i."""
    return sl2.hyp_dist2(u, np.full(np.shape(u), 1j))


# ---------------------------------------------------------------------------
# padding cascade over an energy grid
# ---------------------------------------------------------------------------


@dataclass
class Lemma22Report:
    """Outcome of a padding cascade run over a fixed energy grid.

    Fractions are always relative to the initially elliptic grid energies;
    ``averages`` carries the final per-energy time-averaged distance to the
    base point (NaN where the energy was excluded along the way).
    """

    kind = "padding-cascade-report"
    delta: float
    xi: float
    C0: float
    M: float
    P: int
    kappa: float
    grid: int
    measure_band: float
    c_step0: float
    cprime_fit: float
    retained_fraction: float
    sup_ge_C0_fraction: float
    max_average_gain: float
    steps: list = field(default_factory=list)
    averages: np.ndarray | None = None
    base_averages: np.ndarray | None = None
    energies: np.ndarray | None = None
    retained: np.ndarray | None = None

    def validate(self):
        for name in ("retained_fraction", "sup_ge_C0_fraction"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValidationError(f"{name} outside [0,1]: {val}")
        for rec in self.steps:
            if not 0.0 <= rec["excluded_fraction"] <= 1.0:
                raise ValidationError("step excluded_fraction outside [0,1]")
        if self.averages is not None and self.retained is not None:
            kept = self.averages[self.retained]
            if kept.size and not np.all(np.isfinite(kept)):
                raise ValidationError("averages not finite on retained set")
        return self


# a dense orbit leaves no circular gap of _DENSE_GAP turns
_DENSE_GAP = 0.01
_DENSE_QUOTA = 0.99  # least fraction of dense rows at the chosen block count
_GAMMA_LEVELS = (0.1, 0.2, 0.25, 0.4)  # growth-event levels
_FRAC_SAMPLES = 8  # fractions of the base period sampled for the averages
_AVG_BLOCKS = 64  # blocks kept per step for the averages


def _choose_block_count(theta, start, cap):
    """Smallest power-of-two multiple of `start` whose rotation orbits are
    dense (gaps below _DENSE_GAP) for at least a _DENSE_QUOTA fraction of
    the rows."""
    count = start
    while True:
        gaps = _orbit_max_gap(theta, count)
        if np.mean(gaps < _DENSE_GAP) >= _DENSE_QUOTA or count >= cap:
            return count
        count *= 2


def _padded_product(E, apow, pads, u):
    """Product pass of a padding step: the running block product of
    deform.block_products over the pads.

    Returns (product, u_next, alive, drift): alive flags the rows whose
    every block and product are elliptic with a finite drift d(u_next, u)
    of the product's fixed point.
    """
    alive = np.ones(len(E), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for block, acc in deform.block_products(E, pads, apow):
            alive &= np.abs(sl2.tr2(block)) < 2.0
        alive &= np.abs(sl2.tr2(acc)) < 2.0 - 1e-9
        u_next = sl2.fixed_points2(acc)
        drift = sl2.hyp_dist2(np.where(alive, u_next, 1j), np.where(alive, u, 1j))
    return acc, u_next, alive & np.isfinite(drift), drift


def _padding_step(E, A, u, delta, big_n, n, kappa, keep_stride=0):
    """One padding step on raw monodromies, streaming in block index.

    Returns (A_next, u_next, alive, epsilon, kept) where alive flags the
    rows that stayed elliptic factor by factor with fixed-point drift
    below kappa, epsilon is the block-boundary excursion proxy
    2 sinh(max_m d(B_m u', u) / 2), and kept maps a strided subset of
    block indices to the partial products B_m (for time averaging).

    Both passes iterate deform.block_products.  The excursion pass needs
    u', the fixed point of the whole product, so it cannot share the
    product pass; keeping the 2n partial products instead of rebuilding
    them would hold 2n K 32 B, 105 MB at 400 energies and 8,192 blocks.
    """
    count = A.shape[0]
    pads = deform.PaddingSpec(delta, big_n, n).pad_lengths()
    apow = sl2.power2(A, big_n)
    a_next, u_next, alive, drift = _padded_product(E, apow, pads, u)
    alive &= drift < kappa
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        u_next = np.where(alive, u_next, np.nan * (1 + 1j))
        safe_u = np.where(alive, u_next, 1j)
        base_u = np.where(alive, u, 1j)
        dmax = np.zeros(count)
        kept = {}
        acc = np.broadcast_to(_I2, (count, 2, 2))
        for m, (_, product) in enumerate(deform.block_products(E, pads, apow)):
            if keep_stride and m % keep_stride == 0:
                kept[m] = acc
            um = sl2.moebius2(acc, safe_u)
            dmax = np.maximum(dmax, sl2.hyp_dist2(um, base_u))
            acc = product
    epsilon = np.where(alive, 2.0 * np.sinh(dmax / 2.0), 0.0)
    return a_next, u_next, alive, epsilon, kept


def _choose_pad_count(E, A, u, delta, big_n, kappa, cap):
    """Double the pad count until the subsample fraction of energies whose
    fixed-point drift reaches kappa falls below delta / 2 (or the cap);
    each tried count runs only the product pass of a padding step."""
    apow = sl2.power2(A, big_n)
    n = 8
    while True:
        pads = deform.PaddingSpec(delta, big_n, n).pad_lengths()
        _, _, alive, drift = _padded_product(E, apow, pads, u)
        bad = float(np.mean(alive & (drift >= kappa)))
        if bad <= delta / 2.0 or n >= cap:
            return n
        n *= 2


def _stratified_average(A_prev, big_n, kept, u_next, prefix_frac, alive):
    """Time-averaged distance to i sampled over (block, power, fraction)."""
    count = A_prev.shape[0]
    k_samples = sorted(set(int(round(x)) for x in np.linspace(0, big_n - 1, 4)))
    total = np.zeros(count)
    taken = 0
    safe_u = np.where(alive, u_next, 1j)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in k_samples:
            apk = sl2.power2(A_prev, k)
            for block in kept.values():
                mid = sl2.mul2(apk, block)
                for f in range(prefix_frac.shape[1]):
                    pre = sl2.mul2(prefix_frac[:, f], mid)
                    total += _dist_to_base(sl2.moebius2(pre, safe_u))
                    taken += 1
    return total / taken


def run_lemma22(
    pot: ContinuumPotential,
    M: float = 6.0,
    xi: float = 0.2,
    C0: float = 4.0,
    delta: float = 0.05,
    energy_grid: int = 2000,
    *,
    P: int | None = None,
    kappa: float = 1e-3,
    n_start: int = 256,
    n_cap: int = 4096,
    pad_cap: int = 4096,
) -> Lemma22Report:
    """Iterated padding cascade on raw monodromies over an energy grid.

    Each step raises the base monodromy to a block power, interleaves free
    gap propagators of slowly modulated lengths, and tracks per energy:
    ellipticity of every factor, fixed-point drift below kappa, excursion
    proxies at block boundaries, and a stratified time-average of the
    distance to the base point.  Stops after P steps (default floor(xi /
    delta)).  Raises a pipeline-collapse error if a step excludes every
    remaining energy.
    """
    if delta < 0:
        raise DomainError("pad scale must be nonnegative")
    if delta > 0 and P is None:
        P = int(math.floor(xi / delta))
    elif P is None:
        P = 4
    system = cyc.ContinuumCocycle(pot)
    period0 = system.period
    energies = M * (np.arange(energy_grid) + 0.5) / energy_grid
    frac = (np.arange(_FRAC_SAMPLES) + 0.5) / _FRAC_SAMPLES
    prefix_frac, A = system._grid_and_monodromy(energies, frac * period0)
    elliptic = np.abs(sl2.tr2(A)) < 2.0 - 1e-9
    if not np.any(elliptic):
        raise PipelineCollapseError(0, "no elliptic energies on the grid")
    A = np.where(elliptic[:, None, None], A, _SAFE_ROT)
    u = np.where(elliptic, sl2.fixed_points2(A), 1j)

    base_avg = np.zeros(energy_grid)
    for f in range(_FRAC_SAMPLES):
        base_avg += _dist_to_base(sl2.moebius2(prefix_frac[:, f], u))
    base_avg /= _FRAC_SAMPLES
    base_avg = np.where(elliptic, base_avg, np.nan)
    c_step0 = float(np.nanmax(base_avg))

    alive = elliptic.copy()
    initial = int(alive.sum())
    avg = base_avg.copy()
    growth_log = np.zeros(energy_grid)
    steps = []
    f_first = None

    for step in range(1, P + 1):
        theta = sl2.rotation_angles2(A)
        big_n = _choose_block_count(theta[alive], n_start, n_cap)
        if delta > 0:
            dense = np.zeros(energy_grid, dtype=bool)
            dense[alive] = _orbit_max_gap(theta[alive], big_n) < _DENSE_GAP
        else:
            dense = alive.copy()
        sub = slice(None, None, 8)
        n = _choose_pad_count(
            energies[alive][sub], A[alive][sub], u[alive][sub],
            delta, big_n, kappa, pad_cap,
        ) if delta > 0 else 2
        stride = max(1, (2 * n) // _AVG_BLOCKS)
        a_next, u_next, ok, epsilon, kept = _padding_step(
            energies, A, u, delta, big_n, n, kappa, keep_stride=stride
        )
        ok &= alive & dense
        excluded = int(alive.sum()) - int(ok.sum())
        gamma = _dist_to_int(2.0 * big_n * theta)
        window = ok & (gamma > 2.0 * delta) & (gamma < 0.25)
        scaled = (
            epsilon[window] * np.sin(np.pi * gamma[window]) / delta
            if delta > 0
            else np.array([])
        )
        kbar = float(np.median(scaled)) if scaled.size else float("nan")
        events = {}
        for level in _GAMMA_LEVELS:
            if delta > 0 and np.isfinite(kbar) and kbar > 0:
                threshold = 6.0 * kbar * delta / (math.pi * level)
                frac_ev = float(np.mean(epsilon[ok] >= threshold)) if ok.any() else 0.0
            else:
                frac_ev = 0.0
            events[f"{level:g}"] = {"fraction": frac_ev, "predicted": level / 3.0}
        avg_next = _stratified_average(A, big_n, kept, u_next, prefix_frac, ok)
        avg = np.where(ok, avg_next, np.nan)
        growth_log = np.where(ok, growth_log + np.arcsinh(epsilon / 2.0), growth_log)
        steps.append(
            {
                "step": step,
                "N": int(big_n),
                "n": int(n),
                "excluded_count": excluded,
                "excluded_fraction": excluded / initial,
                "kbar": kbar,
                "growth_events": events,
                "median_drift": float(
                    np.median(sl2.hyp_dist2(u_next[ok], u[ok]))
                ) if ok.any() else float("nan"),
                "max_average": float(np.nanmax(avg)) if ok.any() else float("nan"),
            }
        )
        if f_first is None:
            f_first = excluded / initial
        if not ok.any():
            raise PipelineCollapseError(step, "all energies excluded")
        A = np.where(ok[:, None, None], a_next, _SAFE_ROT)
        u = np.where(ok, u_next, 1j)
        alive = ok

    cprime_fit = f_first / (2.0 * delta) if delta > 0 else 0.0
    sup_frac = float(np.mean(np.exp(growth_log[alive]) >= C0)) if alive.any() else 0.0
    gain = np.nanmax(avg - base_avg) if alive.any() else float("nan")
    report = Lemma22Report(
        delta=delta,
        xi=xi,
        C0=C0,
        M=M,
        P=P,
        kappa=kappa,
        grid=energy_grid,
        measure_band=2.0 / energy_grid,
        c_step0=c_step0,
        cprime_fit=cprime_fit,
        retained_fraction=float(alive.sum()) / initial,
        sup_ge_C0_fraction=sup_frac,
        max_average_gain=float(gain),
        steps=steps,
        averages=avg,
        base_averages=base_avg,
        energies=energies,
        retained=alive,
    )
    return report.validate()


# ---------------------------------------------------------------------------
# twist / repeat / slide composite for discrete families
# ---------------------------------------------------------------------------


def _composite_norms(family, ts, energies, block_len):
    """Sup transfer norms, block-factor norms and monodromies of all slices.

    One site recurrence (cocycle.site_products) runs over every slice t and
    energy at once, streaming over the sites: it keeps the running max over
    sites 1..n of the transfer norms, the product at the last block cut
    (every block_len sites) and the final product.  Returns sup (T, K),
    block_norms (n // block_len, T, K), the norms of the products over
    consecutive stretches of block_len sites, and the monodromies
    (T, K, 2, 2).
    """
    values = np.array([family.slice(float(t)).values for t in ts]).T
    sup = np.full((len(ts), len(energies)), -np.inf)
    block_norms = []
    products = cyc.site_products(energies, values[:, :, None])
    cut = cyc.plane_stack(next(products))
    with np.errstate(all="ignore"):
        for j, P in enumerate(products, 1):
            # norms2 needs a contiguous stack for the bits of its einsum
            A = cyc.plane_stack(P)
            np.maximum(sup, sl2.norms2(A), out=sup)
            if j % block_len == 0:
                block_norms.append(sl2.norms2(sl2.mul2(A, sl2.inv2(cut))))
                cut = A
    return sup, np.stack(block_norms), A


def run_asd12(
    family: DiscreteFamily,
    e_lo: float,
    e_hi: float,
    *,
    delta: float = 0.05,
    twist_pre: int = 3,
    reps: int = 6,
    slide_n: int = 4,
    twist_post: int = 3,
    energy_grid: int = 200,
    t_points: int = 24,
    C0: float = 4.0,
) -> dict:
    """Twist, repeat, slide, twist composite with growth bookkeeping.

    Builds the four-stage deformation of the input family, then over an
    energy grid and a parameter grid tracks: sampled C^1 closeness of the
    slice fixed points to the input family's, inf-over-t of the
    sup-over-sites transfer norms, the parameter-averaged distance to the
    base point, and a product-decomposition certificate counting (t, j)
    pairs whose decomposition-factor norm (consecutive stretches one
    pre-final-twist period long) falls below exp((C0 - 2 C_meas) / 4) / 2,
    with C_meas the mean log of the largest factor norm per slice.

    The t_points slices share one site recurrence over the energy grid
    (_composite_norms).  It stores O(t_points * energy_grid * sites /
    block_len) numbers, the block norms being the largest: no table of
    sites x slices x energies is kept.
    """
    if delta < 0:
        raise DomainError("slide size must be nonnegative")
    fam1 = deform.twist_family(family, twist_pre)
    fam2 = deform.repeat_family(fam1, reps)
    fam3 = deform.slide_family(fam2, delta, slide_n)
    fam4 = deform.twist_family(fam3, twist_post)

    energies = e_lo + (e_hi - e_lo) * (np.arange(energy_grid) + 0.5) / energy_grid
    t_lo, t_hi = -1.0, 2.0
    ts = t_lo + (t_hi - t_lo) * np.arange(t_points) / t_points

    block_len = fam3.n1
    sup, block_norms, mono = _composite_norms(fam4, ts, energies, block_len)
    with np.errstate(all="ignore"):
        tr = sl2.tr2(mono)
        ell = np.isfinite(tr) & (np.abs(tr) < 2.0 - 1e-9)
        mono0 = np.stack([cyc.DiscreteCocycle(family.slice(float(t))).monodromy(energies)
                          for t in ts])
        ell0 = np.abs(sl2.tr2(mono0)) < 2.0 - 1e-9
        u_grid = sl2.fixed_points2(np.where(ell[..., None, None], mono, _SAFE_ROT))
        u0_grid = sl2.fixed_points2(np.where(ell0[..., None, None], mono0, _SAFE_ROT))
        u_grid = np.where(ell, u_grid, np.nan * (1 + 1j))
        u0_grid = np.where(ell0, u0_grid, np.nan * (1 + 1j))
    sup_log = np.log(sup)
    ell_grid = ell & ell0

    retained = np.all(ell_grid, axis=0)
    theta0 = np.full(energy_grid, np.nan)
    mono_pre = cyc.DiscreteCocycle(fam2.slice(0.0)).monodromy(energies)
    pre_ell = np.abs(sl2.tr2(mono_pre)) < 2.0 - 1e-9
    theta0[pre_ell] = sl2.rotation_angles2(mono_pre[pre_ell])
    resonance = _dist_to_int(3.0 * theta0) < delta
    retained &= ~resonance & pre_ell
    if not retained.any():
        raise PipelineCollapseError(1, "no retained energies in the window")

    dt = ts[1] - ts[0]
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gap_t = sl2.hyp_dist2(u_grid, u0_grid)
        c0_close = np.nanmax(np.where(ell_grid, gap_t, np.nan), axis=0)
        vel = np.abs(np.diff(u_grid, axis=0) - np.diff(u0_grid, axis=0)) / dt
        c1_close = c0_close + np.nanmax(
            np.where(ell_grid[:-1] & ell_grid[1:], vel, np.nan), axis=0
        )
        avg_dist = np.nanmean(
            np.where(ell_grid, _dist_to_base(np.where(ell_grid, u_grid, 1j)), np.nan),
            axis=0,
        )

    inf_sup = np.min(sup_log, axis=0)
    block_sup = np.log(np.max(block_norms, axis=0))
    c_meas = float(np.mean(block_sup[:, retained]))
    tau = math.exp((C0 - 2.0 * c_meas) / 4.0) / 2.0
    blocks_kept = block_norms[:, :, retained]
    bad = int(np.sum(blocks_kept < tau))
    total = blocks_kept.size
    return {
        "kind": "composite-deformation-report",
        "delta": delta,
        "twist_pre": twist_pre,
        "reps": reps,
        "slide_n": slide_n,
        "twist_post": twist_post,
        "C0": C0,
        "energy_window": [float(e_lo), float(e_hi)],
        "grid": energy_grid,
        "t_points": t_points,
        "measure_band": 2.0 / energy_grid,
        "sites": int(fam4.n1),
        "block_len": int(block_len),
        "excluded_fraction": float(np.mean(~retained)),
        "resonant_fraction": float(np.mean(resonance)),
        "predicted_resonant": 2.0 * delta,
        "c1_closeness": float(np.nanmax(c1_close[retained])),
        "inf_sup_log_norm": inf_sup,
        "min_inf_sup": float(np.min(inf_sup[retained])),
        "avg_dist_max": float(np.nanmax(avg_dist[retained])),
        "c_meas": c_meas,
        "tau": tau,
        "bad_fraction": bad / total if total else 0.0,
        "certificate_bound": C0 ** -0.5,
        "retained": retained,
        "energies": energies,
    }


# ---------------------------------------------------------------------------
# random surrogate for accumulated growth sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomModelSpec:
    """Parameters of the heavy-tailed surrogate for per-step growth.

    Each step draws W with tail law p(W >= l / R) = delta R / (3 l Cprime)
    clipped to [0, 1] over the admissible range l / R in
    [4 delta / Cprime, 1 / Cprime^2]; below the range the draw is 0, above
    it the tail is saturated at the right endpoint.
    """

    delta: float
    R: float
    cprime: float
    P: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.delta <= 0 or self.R <= 0 or self.cprime <= 0:
            raise ValidationError("delta, R, cprime must be positive")
        if 4.0 * self.delta * self.cprime >= 1.0:
            raise ValidationError(
                "admissible range empty: need 4 delta cprime < 1"
            )
        if self.P < 0 or self.trials < 1:
            raise ValidationError("P must be >= 0 and trials >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")

    @property
    def w_min(self):
        return 4.0 * self.delta / self.cprime

    @property
    def w_max(self):
        return self.cprime ** -2.0

    def tail_probability(self, w):
        """p(W >= w) for w >= 0, with the clipping built in."""
        w = np.asarray(w, dtype=float)
        head = self.delta / (3.0 * self.cprime * self.w_min)
        with np.errstate(divide="ignore"):
            raw = self.delta / (3.0 * self.cprime * np.maximum(w, 1e-300))
        out = np.where(w <= self.w_min, head, raw)
        out = np.where(w > self.w_max, 0.0, out)
        return np.clip(out, 0.0, 1.0)

    def draw_sums(self):
        """Simulate the trials x P table of W draws; returns the row sums."""
        rng = np.random.Generator(np.random.Philox(self.seed))
        shape = (self.trials, self.P)
        uni = rng.random(shape)
        head = self.tail_probability(self.w_min)
        atom = self.tail_probability(self.w_max)
        with np.errstate(divide="ignore"):
            inv = self.delta / (3.0 * self.cprime * np.maximum(uni, 1e-300))
        w = np.where(uni < head, inv, 0.0)
        w = np.where(uni <= atom, self.w_max, w)
        return w.sum(axis=1), w


def wj_model(spec: RandomModelSpec, C0: float = 2.0, bins: int = 40) -> dict:
    """Monte Carlo statistics of the accumulated surrogate growth sums."""
    sums, _ = spec.draw_sums()
    hi = spec.P * spec.w_max if spec.P else 1.0
    counts, edges = np.histogram(sums, bins=bins, range=(0.0, hi))
    return {
        "kind": "growth-sum-model-report",
        "delta": spec.delta,
        "R": spec.R,
        "cprime": spec.cprime,
        "P": spec.P,
        "trials": spec.trials,
        "seed": spec.seed,
        "C0": C0,
        "mean_sum": float(np.mean(sums)),
        "p_below_C0": float(np.mean(sums < C0)),
        "histogram": {"edges": edges, "counts": counts},
    }


def wj_tail_check(spec: RandomModelSpec, lengths) -> dict:
    """Empirical tail frequencies against the model law with 3-sigma bands.

    Oracle for the tail law; checked by test_wj_empirical_tail_within_three_sigma.
    """
    _, w = spec.draw_sums()
    flat = w.reshape(-1)
    rows = []
    for l in lengths:
        wv = float(l) / spec.R
        p_model = float(spec.tail_probability(wv))
        p_emp = float(np.mean(flat >= wv))
        sigma = math.sqrt(max(p_model * (1 - p_model), 1e-12) / flat.size)
        rows.append(
            {
                "l": float(l),
                "w": wv,
                "model": p_model,
                "empirical": p_emp,
                "sigma": sigma,
                "within_3sigma": bool(abs(p_emp - p_model) <= 3.0 * sigma),
            }
        )
    return {"kind": "tail-check-report", "seed": spec.seed, "rows": rows}


# ---------------------------------------------------------------------------
# rotation-sandwich norm identities
# ---------------------------------------------------------------------------


def _norm_functional2(mats):
    """ln((s + 1/s) / 2) with s the operator norm, batched."""
    s = sl2.norms2(mats)
    return np.log((s + 1.0 / s) / 2.0)


def carleson_parseval(mats, grid: int = 2**14) -> dict:
    """Quadrature check of the rotation-averaged norm-functional identity.

    lhs integrates N(A_n R_theta ... A_1 R_theta) over a full turn of
    theta with the periodic rectangle rule; rhs sums N(A_j).
    """
    mats = [np.asarray(a, dtype=float) for a in mats]
    for a in mats:
        if a.shape != (2, 2) or abs(float(np.linalg.det(a)) - 1.0) > 1e-9:
            raise ValidationError("factors must be unimodular 2x2 matrices")
    theta = np.arange(grid, dtype=float) / grid
    rots = sl2.rotation2(theta)
    prod = np.broadcast_to(_I2, (grid, 2, 2))
    for a in mats:
        prod = sl2.mul2(np.broadcast_to(a, (grid, 2, 2)), sl2.mul2(rots, prod))
    lhs = float(np.mean(_norm_functional2(prod)))
    rhs = float(sum(_norm_functional2(a.reshape(1, 2, 2))[0] for a in mats))
    return {
        "kind": "norm-average-report",
        "n": len(mats),
        "grid": grid,
        "lhs": lhs,
        "rhs": rhs,
        "gap": abs(lhs - rhs),
    }


def random_polar_matrices(count: int, lam_max: float, seed: int):
    """Random unimodular factors R_a diag(e^l, e^-l) R_b with l <= lam_max."""
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.random(count)
    b = rng.random(count)
    lam = lam_max * rng.random(count)
    diag = np.zeros((count, 2, 2))
    diag[:, 0, 0] = np.exp(lam)
    diag[:, 1, 1] = np.exp(-lam)
    out = sl2.mul2(sl2.rotation2(a), sl2.mul2(diag, sl2.rotation2(b)))
    return [out[i] for i in range(count)]


def _sandwich_product(lambdas, betas, theta, s):
    """Product of diag(e^{s l_j}, e^{-s l_j}) R_{beta_j} R_theta factors."""
    out = _I2.copy()
    for lam, beta in zip(lambdas, betas):
        d = np.diag([math.exp(s * lam), math.exp(-s * lam)])
        out = d @ sl2.rotation2(beta + theta) @ out
    return out


def carleson_b1(lambdas, betas, theta: float, s: float = 1e-3,
                *, n: int | None = None) -> dict:
    """Zeroth and first stretch-order of a rotation-sandwich product.

    The product multiplies diag(e^{s lam_j}, e^{-s lam_j}) R_{beta_j + theta}
    left to right in j; b0 is its value at s = 0 (a pure rotation by
    alpha_n + n theta) and b1 the exact first derivative in s, assembled as
    a sum of suffix * diag(1,-1) * prefix chains.  secant_error certifies
    the expansion: || A(s) - b0 - s b1 || / s^2 at the given s.
    """
    lambdas = [float(x) for x in lambdas]
    betas = [float(x) for x in betas]
    if len(lambdas) != len(betas):
        raise ValidationError("lambda and beta lists must be equally long")
    if n is not None and n != len(lambdas):
        raise ValidationError("factor count does not match the parameter lists")
    if any(l < 0 for l in lambdas):
        raise ValidationError("stretch rates must be nonnegative")
    count = len(lambdas)
    alpha_n = sum(betas)
    b0 = sl2.rotation2(alpha_n + count * theta)
    lam_flip = np.diag([1.0, -1.0])
    prefix = _I2.copy()
    b1 = np.zeros((2, 2))
    prefixes = []
    for j in range(count):
        prefixes.append(prefix.copy())
        prefix = sl2.rotation2(betas[j] + theta) @ prefix
    suffix = _I2.copy()
    for j in range(count - 1, -1, -1):
        rot_j = sl2.rotation2(betas[j] + theta)
        b1 = b1 + lambdas[j] * (suffix @ lam_flip @ rot_j @ prefixes[j])
        suffix = suffix @ rot_j
    a_s = _sandwich_product(lambdas, betas, theta, s)
    secant = float(np.linalg.norm(a_s - b0 - s * b1) / (s * s))
    return {
        "kind": "stretch-expansion-report",
        "n": count,
        "theta": theta,
        "alpha_n": alpha_n,
        "b0": b0.tolist(),
        "b1": b1.tolist(),
        "s": s,
        "secant_error": secant,
    }


# ---------------------------------------------------------------------------
# threshold metrics for growth and spectral quality
# ---------------------------------------------------------------------------


def _band_energy_grid(bands, m_cap, per_band):
    """Grid energies and weights covering the bands clipped at m_cap."""
    energies = []
    weights = []
    for band in bands.bands:
        lo, hi = band.lo, min(band.hi, m_cap)
        if hi <= lo:
            continue
        width = hi - lo
        pts = lo + width * (np.arange(per_band) + 0.5) / per_band
        energies.append(pts)
        weights.append(np.full(per_band, width / per_band))
    if not energies:
        return np.array([]), np.array([])
    return np.concatenate(energies), np.concatenate(weights)


def crooked_metric(
    pot: ContinuumPotential,
    eps1: float,
    C1: float,
    M: float,
    *,
    per_band: int = 48,
    t_samples: int = 256,
    basepoints: int = 32,
) -> dict:
    """Measure of the spectrum below M where growth clears C1 robustly.

    An energy passes when the growth functional from more than a 1 - eps1
    fraction of sampled basepoints exceeds C1, i.e. the distance curve at
    the basepoint sits below its sup minus 2 ln C1.  Returns the passing
    measure (a union of grid cells) and the deficit.
    """
    system = cyc.ContinuumCocycle(pot)
    lo = system.scan_range(M)[0]
    bands = cyc.band_spectrum(system, lo, M)
    energies, weights = _band_energy_grid(bands, M, per_band)
    t_grid = system.period * (np.arange(t_samples) + 0.5) / t_samples
    stride = max(1, t_samples // basepoints)

    def basepoint_fraction(z):
        # nan on the non-elliptic rows, which then fail
        dists = _dist_to_base(z)
        cut = np.max(dists, axis=1) - 2.0 * math.log(C1) + 1e-12
        frac = np.mean(dists[:, ::stride] <= cut[:, None], axis=1)
        return np.where(np.isnan(z[:, 0]), np.nan, frac)

    frac = cyc.section_points(system, energies, t_grid, basepoint_fraction,
                              margin=1e-9)
    passing = frac > 1.0 - eps1
    total = float(np.sum(weights))
    gamma = float(np.sum(weights[passing]))
    # a fraction of no spectrum is undefined, and the report writes it null
    fraction = gamma / total if total > 0.0 else math.nan
    return {
        "kind": "robust-growth-report",
        "eps1": eps1,
        "C1": C1,
        "M": M,
        "per_band": per_band,
        "t_samples": t_samples,
        "basepoints": basepoints,
        "total_measure": total,
        "passing_measure": gamma,
        "deficit": total - gamma,
        "passing_fraction": fraction,
        "crooked": bool(fraction > 1.0 - 1e-9),
    }


def good_nice_metrics(
    pot,
    eps: float,
    M: float,
    *,
    per_band: int = 32,
) -> dict:
    """Exponent-flatness and density-consistency metrics below a cap.

    sup_L is the largest Lyapunov exponent over band grid energies capped
    at M; ids_deficit compares the integrated density of states at M with
    the integral of the density over every band clipped to [lo, min(hi,
    M)], on cyc.band_quadrature at spectral_parseval's order 48, whose
    E = edge +- x^2 map absorbs the inverse square-root band-edge
    divergence and is smooth at the cap.  A quadrature node outside the
    spectrum raises NotEllipticError.
    """
    if isinstance(pot, ContinuumPotential):
        system = cyc.ContinuumCocycle(pot)
        lo, _ = system.scan_range(M)
        bands = cyc.band_spectrum(system, lo, M)
    else:
        sliced = pot.slice(0.0) if isinstance(pot, DiscreteFamily) else pot
        system = cyc.DiscreteCocycle(sliced)
        bands = cyc.discrete_band_spectrum(system)
    energies, _ = _band_energy_grid(bands, M, per_band)
    if energies.size:
        lyap = cyc.lyapunov(system, energies)
        sup_l = float(np.max(lyap))
    else:
        sup_l = 0.0
    ids_at_m = cyc.ids(system, M) if energies.size else 0.0
    nodes = [cyc.band_quadrature(band.lo, min(band.hi, M), 48)
             for band in bands.bands if band.lo < M]
    integral = 0.0
    if nodes:
        Es, Ws = (np.concatenate(v) for v in zip(*nodes))
        integral = float(np.sum(cyc.density(system, Es) * Ws))
    deficit = abs(float(ids_at_m) - integral)
    return {
        "kind": "spectral-quality-report",
        "eps": eps,
        "M": M,
        "sup_L": sup_l,
        "ids_at_M": float(ids_at_m),
        "ids_integral": integral,
        "ids_deficit": deficit,
        "good": bool(sup_l <= eps),
        "nice": bool(deficit <= eps),
    }


# ---------------------------------------------------------------------------
# brute-force minimax oracle for the growth functional
# ---------------------------------------------------------------------------


# growth_minimax's directions, periods, times per period and circle grid
_MINIMAX_DIRECTIONS = 720
_MINIMAX_HORIZON = 5000
_MINIMAX_TIMES = 64
_MINIMAX_PSI = 4096


def growth_minimax(system, E: float) -> dict:
    """Brute-force inf over directions of sup over times of transfer norms.

    Expands times as s + k T with s on a one-period grid and k below the
    horizon; monodromy powers enter through their exact rotation form, so
    the sup reduces to a lookup of max_s quadratic forms on a fine circle
    grid.  Compared against the closed-form growth functional.

    Oracle for the growth functional; checked by test_minimax_matches_growth_functional.
    """
    times = cyc._period_times(system, _MINIMAX_TIMES)
    pref, mono = system._grid_and_monodromy(np.asarray([float(E)]), times)
    pref = pref[0]
    if abs(float(sl2.tr2(mono)[0])) >= 2.0 - 1e-9:
        raise DomainError("energy not elliptic; minimax growth undefined")
    u0 = sl2.fixed_points2(mono)[0]
    frame = sl2.frames2(np.asarray([u0]))[0]
    frame_inv = np.linalg.inv(frame)
    theta = float(sl2.rotation_angles2(mono)[0])
    lead = sl2.mul2(pref, np.broadcast_to(frame_inv, pref.shape))
    gram = np.einsum("sij,sik->sjk", lead, lead)
    psi = 2.0 * np.pi * np.arange(_MINIMAX_PSI) / _MINIMAX_PSI
    cs = np.stack([np.cos(psi), np.sin(psi)])
    quad = np.einsum("ip,sij,jp->sp", cs, gram, cs)
    h_max = np.sqrt(np.max(quad, axis=0))
    phases = np.mod(np.arange(_MINIMAX_HORIZON, dtype=float) * theta, 1.0)
    best = np.inf
    arg_best = 0.0
    for phi_w in (np.arange(_MINIMAX_DIRECTIONS) + 0.5) / _MINIMAX_DIRECTIONS * 0.5:
        w = np.array([math.cos(2.0 * math.pi * phi_w), math.sin(2.0 * math.pi * phi_w)])
        v = frame @ w
        scale = math.hypot(v[0], v[1])
        ang = math.atan2(v[1], v[0])
        idx = np.mod(
            np.round((ang + 2.0 * np.pi * phases) / (2.0 * np.pi) * _MINIMAX_PSI).astype(int),
            _MINIMAX_PSI,
        )
        sup_norm = scale * float(np.max(h_max[idx]))
        if sup_norm < best:
            best = sup_norm
            arg_best = phi_w
    rep = cyc.growth_value(system, float(E))
    rel = abs(best - rep.value) / rep.value
    return {
        "kind": "minimax-growth-report",
        "E": float(E),
        "oracle": float(best),
        "functional": float(rep.value),
        "rel_gap": float(rel),
        "arg_direction": float(arg_best),
    }
