"""Transfer matrices and spectral quantities for periodic one-dimensional
Schrodinger operators, continuum and discrete.

Continuum states are (u', u) columns evolving by dA/ds = [[0, V-E], [1, 0]] A;
discrete states are (u(j), u(j-1)) columns advanced by [[E - v_j, -1], [1, 0]].
Both cocycle classes expose the same surface: prefix transfer from time 0,
transfer between times, period monodromy from any base point, trace and
its complex-step derivative over energy arrays.

Density of states, growth, the completeness integral (and labverify's
crooked metric) are read off one object for both kinds, the invariant section
(section_points): the upper-half-plane fixed point of the monodromy,
carried along the period by the prefix transfers, batched over energies.

Every continuum propagator is a product of closed-form exponentials
c I + s Omega of traceless matrices, with (c, s) = (cos w, sin w / w) entire
in w^2, so traces extend to complex energy and derivatives are taken by
complex step.  Zero stretches of the potential are crossed in one exact
step (free_block).  Nonzero pieces are crossed by fourth-order two-node
Gauss-Magnus steps (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 2009): for this generator the commutator term does not
depend on E, so V is sampled once per piece, each step has determinant
one, and a whole energy batch advances through all steps of a piece in a
few vectorized products.  A cocycle fixes the step count and potential
samples of each piece once, by step doubling against a stated tolerance;
no propagator is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sl2, util
from .errors import (
    IntegrationFailureError,
    NotEllipticError,
    ResolutionError,
    ValidationError,
)
from .potentials import ContinuumPotential, DiscreteFamily, DiscretePotential, Gap
from .util import gauss_nodes

# relative (max-norm) error target of a piece propagator, estimated by step
# doubling at the probe energies; see _Piece
_TOL = 1e-10
_MIN_STEPS_PER_UNIT = 8
_MAX_STEPS = 2 ** 14
# probe energies: a ladder above the largest sampled value of V, plus one
# below the smallest; on the bump and the well the doubling estimate varied
# by about a factor of ten over this range and stayed below its top up to
# E = 1e5
_PROBE_OFFSETS = (0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)
# identifies the numerics behind every piece propagator; results computed
# under another engine must not be served from a cache
ENGINE = (f"gauss-magnus4 step-doubling tol={_TOL!r} "
          f"start={_MIN_STEPS_PER_UNIT}/unit probes={_PROBE_OFFSETS} "
          "density=invariant-section")
# energies per batch, and energy-steps per batch, bound the stacks in memory
_CHUNK = 256
_STACK = 2 ** 18
_SMALL_X = 1e-10


def __getattr__(name):
    # The benchmark tracer (perfbench/tracing.py) wraps ``cocycle.solve_ivp``
    # by name to count ODE solves.  The package never calls it and does not
    # depend on scipy: only the tracer and the tests need scipy, and this
    # lookup imports it only when the tracer asks.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# free propagator, entire in the energy
# ---------------------------------------------------------------------------


def _cos_sinc(x):
    """cos(sqrt(x)) and sin(sqrt(x))/sqrt(x), entire, for real or complex x."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        w = np.sqrt(x.astype(complex))
        small = np.abs(x) < _SMALL_X
        wsafe = np.where(small, 1.0, w)
        c = np.where(small, 1.0 - x / 2.0 + x * x / 24.0, np.cos(wsafe))
        s = np.where(small, 1.0 - x / 6.0 + x * x / 120.0, np.sin(wsafe) / wsafe)
        return c, s
    x = x.astype(float)
    c = np.empty_like(x)
    s = np.empty_like(x)
    pos = x > _SMALL_X
    neg = x < -_SMALL_X
    mid = ~(pos | neg)
    wp = np.sqrt(x[pos])
    c[pos] = np.cos(wp)
    s[pos] = np.sin(wp) / wp
    wn = np.sqrt(-x[neg])
    c[neg] = np.cosh(wn)
    s[neg] = np.sinh(wn) / wn
    xm = x[mid]
    c[mid] = 1.0 - xm / 2.0 + xm * xm / 24.0
    s[mid] = 1.0 - xm / 6.0 + xm * xm / 120.0
    return c, s


def free_block(E, length):
    """Propagator of the zero potential over the given length, (...,2,2).

    Entire in E: for E > 0 it is the rotation-like block built from
    cos(w L) and sin(w L)/w with w = sqrt(E); negative and complex E
    follow by analytic continuation.  E and length broadcast together.
    """
    E = np.asarray(E)
    length = np.asarray(length)
    c, s = _cos_sinc(E * (length * length))
    out = np.empty(c.shape + (2, 2), dtype=c.dtype)
    out[..., 0, 0] = c
    out[..., 0, 1] = -E * length * s
    out[..., 1, 0] = length * s
    out[..., 1, 1] = c
    return out


# ---------------------------------------------------------------------------
# nonzero pieces: fourth-order Gauss-Magnus steps
# ---------------------------------------------------------------------------

# Gauss nodes of a step of length h sit at (1/2 -+ _GAUSS) h
_GAUSS = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0


def _magnus_steps(h, a, vbar, E):
    """Step propagators exp([[a, b], [h, -a]]) with b = h (vbar - E).

    h, a and vbar broadcast along the steps and E along the leading axis;
    returns (K, steps, 2, 2).  Omega = [[a, b], [h, -a]] squares to
    (a^2 + b h) I, so exp(Omega) = c I + s Omega with the (c, s) of
    free_block: determinant one, entire in E.
    """
    b = h * (vbar - E[:, None])
    c, s = _cos_sinc(-(a * a + b * h))
    out = np.empty(c.shape + (2, 2), dtype=c.dtype)
    out[..., 0, 0] = c + s * a
    out[..., 0, 1] = s * b
    out[..., 1, 0] = s * h
    out[..., 1, 1] = c - s * a
    return out


def _tree_product(S):
    """Ordered product S[:, n-1] ... S[:, 0] of a (K, n, 2, 2) stack, by
    pairwise products in ceil(log2 n) vectorized rounds."""
    while S.shape[1] > 1:
        n = S.shape[1]
        paired = sl2.mul2(S[:, 1::2], S[:, 0:n - 1:2])
        S = paired if n % 2 == 0 else np.concatenate([paired, S[:, -1:]], axis=1)
    return S[:, 0]


def _prefix_products(S):
    """P[:, k] = S[:, k-1] ... S[:, 0] for k = 0..n (P[:, 0] = I), by a
    Hillis-Steele scan in ceil(log2 n) vectorized rounds."""
    K, n = S.shape[:2]
    P = np.empty((K, n + 1, 2, 2), dtype=S.dtype)
    P[:, 0] = np.eye(2)
    P[:, 1:] = S
    d = 1
    while d < n:
        P[:, d + 1:] = sl2.mul2(P[:, d + 1:], P[:, 1:n + 1 - d])
        d *= 2
    return P


class _Piece:
    """Propagators across one nonzero piece, V(s) = fn(shift + timescale s)
    for s in [0, length], for any batch of energies.

    V is sampled once, at the Gauss nodes of ``steps`` equal steps; the
    samples do not depend on E.  ``steps`` is the first count in
    n0, 2 n0, 4 n0, ... (n0 = _MIN_STEPS_PER_UNIT per unit length) whose
    piece propagator differs from the one with twice the steps by at most
    _TOL, relative to max(1, its size), at every probe energy.  For a
    fourth-order method that difference estimates the error of the coarser
    propagator, so the count grows with the timescale and with narrow
    features of V and is the same for every energy.
    """

    def __init__(self, fn, shift, timescale, length):
        self._fn = fn
        self._shift = shift
        self._timescale = timescale
        self.length = length
        n = max(1, math.ceil(_MIN_STEPS_PER_UNIT * length))
        coarse = self._uniform(n)
        v = coarse[2]
        probes = np.concatenate([[v.min() - 1.0], v.max() + np.array(_PROBE_OFFSETS)])
        coarse_prop = _tree_product(_magnus_steps(*coarse, probes))
        while True:
            if 2 * n > _MAX_STEPS:
                raise IntegrationFailureError(
                    f"piece needs more than {_MAX_STEPS} Magnus steps to meet "
                    f"tolerance {_TOL!r}", interval=(0.0, length))
            fine = self._uniform(2 * n)
            fine_prop = _tree_product(_magnus_steps(*fine, probes))
            size = np.maximum(1.0, np.max(np.abs(fine_prop), axis=(1, 2)))
            err = np.max(np.abs(coarse_prop - fine_prop), axis=(1, 2)) / size
            if np.all(err <= _TOL):
                break
            n, coarse, coarse_prop = 2 * n, fine, fine_prop
        self.steps = n
        self._h, self._a, self._vbar = coarse

    def _sample(self, left, h):
        """(a, vbar) of the Magnus steps [left, left + h]; left and h broadcast."""
        left, h = np.broadcast_arrays(left, h)
        nodes = np.concatenate([left + h * (0.5 - _GAUSS), left + h * (0.5 + _GAUSS)])
        v = self._fn(self._shift + self._timescale * nodes)
        if not np.all(np.isfinite(v)):
            raise IntegrationFailureError("potential is not finite on the piece",
                                          interval=(0.0, self.length))
        v1, v2 = v[:left.shape[0]], v[left.shape[0]:]
        return _COMMUTATOR * h * h * (v2 - v1), 0.5 * (v1 + v2)

    def _uniform(self, n):
        """(h, a, vbar) of n equal steps across the piece."""
        h = self.length / n
        return (h,) + self._sample(h * np.arange(n), h)

    def full(self, E):
        """(K, 2, 2) propagator across the whole piece."""
        return _tree_product(_magnus_steps(self._h, self._a, self._vbar, E))

    def prefix(self, E, s):
        """(K, len(s), 2, 2) propagators from the piece start to local times
        s in [0, length]: the scanned products of the whole steps below each
        time, then one shortened Magnus step up to the time itself."""
        k = np.minimum(np.floor(s / self._h), self.steps).astype(int)
        left = k * self._h
        r = np.maximum(s - left, 0.0)
        short = _magnus_steps(r, *self._sample(left, r), E)
        top = int(k.max())
        whole = _prefix_products(
            _magnus_steps(self._h, self._a[:top], self._vbar[:top], E))
        return sl2.mul2(short, whole[:, k])


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _as_batch(E):
    """Normalize scalar-or-array energy to (array, was_scalar)."""
    arr = np.asarray(E)
    if arr.ndim == 0:
        return arr.reshape(1), True
    if arr.ndim != 1:
        raise ValidationError("energy input must be a scalar or a 1-d array")
    return arr, False


def _times_period_powers(M, ks, A):
    """A[:, i] . M**ks[i] for a (K, len(ks), 2, 2) stack A, written into A.

    Each distinct power is computed once; M**-k inverts M**k.
    """
    for k in np.unique(ks):
        if k == 0:
            continue
        P = sl2.power2(M, int(k)) if k > 0 else sl2.inv2(sl2.power2(M, int(-k)))
        rows = ks == k
        A[:, rows] = sl2.mul2(A[:, rows], P[:, None])
    return A


# The cocycle classes share these bodies.  Each class assigns them in its
# own body, so that every method is found in the class dict, where the
# benchmark tracer (perfbench/tracing.py) looks for it.


def _prefix(self, E, t):
    """A(E, 0, t) for one time (continuum) or site (discrete) t of either
    sign; t may lie past the period."""
    return self.prefix_grid(E, [t])[..., 0, :, :]


def _trace(self, E):
    """Monodromy trace over real or complex energies."""
    Earr, scalar = _as_batch(E)
    out = sl2.tr2(self.monodromy(Earr))
    return float(out[0]) if scalar and not np.iscomplexobj(out) else (
        out[0] if scalar else out)


def _trace_derivative(self, E, h: float = 1e-100):
    """d(trace)/dE by complex step: both cocycles are entire in E, so
    Im tr(E + ih) / h is the derivative to rounding, with no subtraction."""
    Earr, scalar = _as_batch(E)
    tr = self.trace(Earr.astype(complex) + 1j * h)
    out = np.imag(tr) / h
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# continuum cocycle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuumCocycle:
    """Transfer-matrix view of a periodic continuum Schrodinger operator."""

    pot: ContinuumPotential

    kind = "continuum"

    @property
    def period(self) -> float:
        return self.pot.period

    @cached_property
    def _segments(self):
        """(start, length, piece-or-None) per segment; None marks a gap.

        Segments reading the same window of the same base share one _Piece.
        """
        pieces = {}
        out = []
        for start, seg in zip(self.pot.boundaries.tolist(), self.pot.segments):
            piece = None
            if not isinstance(seg, Gap):
                key = (seg.base, seg.shift, seg.timescale, seg.length)
                piece = pieces.get(key)
                if piece is None:
                    piece = pieces[key] = _Piece(self.pot.bases[seg.base], *key[1:])
            out.append((start, seg.length, piece))
        return tuple(out)

    @cached_property
    def _batch(self):
        """Energies per block: at most _CHUNK, and at most _STACK
        energy-steps of the piece with the most steps."""
        steps = max((p.steps for _, _, p in self._segments if p is not None),
                    default=1)
        return max(1, min(_CHUNK, _STACK // steps))

    def _chunked(self, E, fn):
        """Apply fn to energy blocks of self._batch and stack the results."""
        size = self._batch
        if E.shape[0] <= size:
            return fn(E)
        parts = [fn(E[i:i + size]) for i in range(0, E.shape[0], size)]
        return np.concatenate(parts, axis=0)

    def _entry_matrices(self, E):
        """A(0 -> segment start) for each segment, then the monodromy:
        (segments + 1, K, 2, 2).  Each distinct piece or gap length is
        propagated once."""
        K = E.shape[0]
        dt = complex if np.iscomplexobj(E) else float
        cur = np.broadcast_to(np.eye(2, dtype=dt), (K, 2, 2))
        entries = [cur]
        blocks = {}
        for _, length, piece in self._segments:
            key = length if piece is None else piece
            if key not in blocks:
                blocks[key] = free_block(E, length) if piece is None else piece.full(E)
            cur = sl2.mul2(blocks[key], cur)
            entries.append(cur)
        return np.stack(entries)

    def _in_period(self, E, t, entries):
        """A(0 -> t) for an array of times t in [0, period]: (K, len(t), 2, 2).

        Times are grouped by the piece or gap length they fall in, so each
        distinct one is evaluated once for all its times.
        """
        segs = self._segments
        starts = np.array([s[0] for s in segs])
        lengths = np.array([s[1] for s in segs])
        idx = np.minimum(np.searchsorted(starts + lengths, t, side="right"),
                         len(segs) - 1)
        local = np.minimum(np.maximum(t - starts[idx], 0.0), lengths[idx])
        groups = {}
        for i in np.unique(idx):
            _, length, piece = segs[i]
            groups.setdefault(length if piece is None else piece, []).append(i)
        out = np.empty((E.shape[0], t.shape[0], 2, 2), dtype=entries.dtype)
        for key, members in groups.items():
            rows = np.nonzero(np.isin(idx, members))[0]
            if isinstance(key, _Piece):
                blk = key.prefix(E, local[rows])
            else:
                blk = free_block(E[:, None], local[rows])
            out[:, rows] = sl2.mul2(blk, entries[idx[rows]].swapaxes(0, 1))
        return out

    prefix = _prefix

    def prefix_grid(self, E, t_grid):
        """A(E, 0, t) for an ascending array of times; returns (K, Nt, 2, 2)."""
        Earr, scalar = _as_batch(E)
        t_grid = np.asarray(t_grid, dtype=float)
        T = self.period
        ks = np.floor(t_grid / T).astype(int)
        rems = t_grid - ks * T

        def run(block):
            entries = self._entry_matrices(block)
            return _times_period_powers(entries[-1], ks,
                                        self._in_period(block, rems, entries))

        out = self._chunked(Earr, run)
        return out[0] if scalar else out

    def transfer(self, E, t0, t1):
        """A(E, t0, t1) with the usual cocycle composition rule."""
        if t1 == t0:
            Earr, scalar = _as_batch(E)
            dt = complex if np.iscomplexobj(Earr) else float
            eye = np.broadcast_to(np.eye(2, dtype=dt), (Earr.shape[0], 2, 2)).copy()
            return eye[0] if scalar else eye
        if t0 == 0.0:
            return self.prefix(E, t1)
        a1 = self.prefix(E, t1)
        a0 = self.prefix(E, t0)
        Earr, scalar = _as_batch(E)
        a1 = a1 if not scalar else a1[None]
        a0 = a0 if not scalar else a0[None]
        out = sl2.mul2(a1, sl2.inv2(a0))
        return out[0] if scalar else out

    def monodromy(self, E, t0=0.0):
        """A(E, t0, t0 + period)."""
        Earr, scalar = _as_batch(E)

        def run(block):
            entries = self._entry_matrices(block)
            M = entries[-1]
            if t0 == 0.0:
                return M
            rem = t0 - math.floor(t0 / self.period) * self.period
            P = self._in_period(block, np.array([rem]), entries)[:, 0]
            return sl2.mul2(sl2.mul2(P, M), sl2.inv2(P))

        out = self._chunked(Earr, run)
        return out[0] if scalar else out

    trace = _trace
    trace_derivative = _trace_derivative

    def scan_range(self, e_max: float):
        lo = -self.pot.sup_norm_estimate() - 0.25
        return lo, e_max


# ---------------------------------------------------------------------------
# discrete cocycle
# ---------------------------------------------------------------------------


def step_matrices(E, values):
    """Stack of one-site transfer matrices, shape (K, n, 2, 2)."""
    E = np.asarray(E)
    values = np.asarray(values, dtype=float)
    K = E.shape[0]
    n = values.shape[0]
    dt = complex if np.iscomplexobj(E) else float
    out = np.zeros((K, n, 2, 2), dtype=dt)
    out[:, :, 0, 0] = E[:, None] - values[None, :]
    out[:, :, 0, 1] = -1.0
    out[:, :, 1, 0] = 1.0
    return out


@dataclass(frozen=True)
class DiscreteCocycle:
    """Transfer-matrix view of a periodic discrete Schrodinger operator."""

    pot: DiscretePotential

    kind = "discrete"

    @staticmethod
    def from_family(family: DiscreteFamily, t: float) -> "DiscreteCocycle":
        return DiscreteCocycle(family.slice(t))

    @property
    def period(self) -> float:
        return float(self.pot.period)

    @property
    def sites(self) -> int:
        return self.pot.period

    def _prefix_table(self, E):
        """P_j = S_{j-1} ... S_0 for j = 0..n, shape (n+1, K, 2, 2)."""
        n = self.sites
        K = E.shape[0]
        dt = complex if np.iscomplexobj(E) else float
        steps = step_matrices(E, np.asarray(self.pot.values))
        out = np.empty((n + 1, K, 2, 2), dtype=dt)
        out[0] = np.broadcast_to(np.eye(2, dtype=dt), (K, 2, 2))
        for j in range(n):
            out[j + 1] = sl2.mul2(steps[:, j], out[j])
        return out

    prefix = _prefix

    def prefix_grid(self, E, sites):
        """A(E, 0, j) for an array of integers; returns (K, len, 2, 2)."""
        Earr, scalar = _as_batch(E)
        sites = np.asarray(sites, dtype=int)
        table = self._prefix_table(Earr)
        ks = sites // self.sites
        rems = sites - ks * self.sites
        out = _times_period_powers(table[-1], ks, table.swapaxes(0, 1)[:, rems])
        return out[0] if scalar else out

    def transfer(self, E, j0, j1):
        """Direct ordered product of step matrices from site j0 to j1."""
        Earr, scalar = _as_batch(E)
        j0, j1 = int(j0), int(j1)
        if j1 < j0:
            out = self.transfer(Earr, j1, j0)
            out = sl2.inv2(out)
            return out[0] if scalar else out
        K = Earr.shape[0]
        dt = complex if np.iscomplexobj(Earr) else float
        A = np.broadcast_to(np.eye(2, dtype=dt), (K, 2, 2)).copy()
        vals = self.pot(np.arange(j0, j1))
        if j1 > j0:
            steps = step_matrices(Earr, vals)
            for i in range(j1 - j0):
                A = sl2.mul2(steps[:, i], A)
        return A[0] if scalar else A

    def monodromy(self, E, j0=0):
        return self.transfer(E, int(j0), int(j0) + self.sites)

    trace = _trace
    trace_derivative = _trace_derivative

    def scan_range(self, margin: float = 0.25):
        vals = np.asarray(self.pot.values)
        return float(vals.min() - 2.0 - margin), float(vals.max() + 2.0 + margin)


# ---------------------------------------------------------------------------
# band spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    lo_sign: int
    hi_sign: int

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BandSet:
    bands: tuple
    kind: str
    period: float
    e_min: float
    e_max: float

    def __len__(self):
        return len(self.bands)

    def to_json(self):
        return {
            "kind": self.kind,
            "period": self.period,
            "e_min": self.e_min,
            "e_max": self.e_max,
            "bands": [
                {"lo": b.lo, "hi": b.hi, "lo_sign": b.lo_sign, "hi_sign": b.hi_sign}
                for b in self.bands
            ],
        }


def band_spectrum(system, e_min: float, e_max: float, *, grid: int = 4096,
                  tangency_tol: float = 1e-9, budget: int = 2_000_000) -> BandSet:
    """Locate the closed-band decomposition of [e_min, e_max].

    Bands are maximal intervals with |trace| <= 2, split at interior
    tangency points where the trace touches +-2, so touching bands are
    reported separately and closed gaps are kept visible.

    Each stage is batched over all bands, so the number of ``trace``
    calls grows with the iterations of the slowest bracket, not with the
    number of bands: the scan and its 4x refinement of outside runs; the
    bisections that look for a band between two outside samples of
    opposite sign (all such pairs step together); the band edges (one
    lockstep ``util.brentq`` solve); the tangency grids of all bands (one
    call); the ``trace_derivative`` roots of all tangency candidates; and
    both edges of every micro-gap.  Every bracket runs the same iteration
    it would run alone, so the edges do not depend on the batching.
    ``budget`` bounds the number of trace evaluations.
    """
    if not e_max > e_min:
        raise ValidationError("need e_max > e_min")
    used = [0]

    def tr_of(Es):
        Es = np.atleast_1d(np.asarray(Es, dtype=float))
        used[0] += Es.shape[0]
        if used[0] > budget:
            raise ResolutionError(
                f"band scan exceeded its evaluation budget ({budget})"
            )
        return np.atleast_1d(system.trace(Es))

    Es = np.linspace(e_min, e_max, grid + 1)
    trs = tr_of(Es)

    # refine outside runs once at 4x density to expose narrow bands
    inside = np.abs(trs) <= 2.0
    extra = []
    i = 0
    while i <= grid:
        if not inside[i]:
            j = i
            while j + 1 <= grid and not inside[j + 1]:
                j += 1
            lo = Es[max(i - 1, 0)]
            hi = Es[min(j + 1, grid)]
            step = (Es[1] - Es[0]) / 4.0
            if hi > lo:
                extra.append(np.arange(lo + step, hi, step))
            i = j + 1
        else:
            i += 1
    if extra:
        newE = np.concatenate(extra)
        newT = tr_of(newE)
        Es = np.concatenate([Es, newE])
        trs = np.concatenate([trs, newT])
        order = np.argsort(Es)
        Es, trs = Es[order], trs[order]

    # both-outside sign changes must contain a band: bisect until found
    inside = np.abs(trs) <= 2.0
    pair = np.flatnonzero(~inside[:-1] & ~inside[1:] & (trs[:-1] * trs[1:] < 0))
    a, fa, b, fb = Es[pair], trs[pair], Es[pair + 1], trs[pair + 1]
    add_pts, add_trs = [], []
    for _ in range(200):
        if not a.size:
            break
        m = 0.5 * (a + b)
        fm = tr_of(m)
        add_pts.append(m)
        add_trs.append(fm)
        left = fa * fm < 0
        a, fa = np.where(left, a, m), np.where(left, fa, fm)
        b, fb = np.where(left, m, b), np.where(left, fm, fb)
        live = ((np.abs(fm) > 2.0)
                & ~(b - a < 1e-15 * np.maximum(1.0, np.abs(a))))
        a, fa, b, fb = a[live], fa[live], b[live], fb[live]
    wide = b - a > 1e-15 * np.maximum(1.0, np.abs(a))
    if wide.any():
        raise ResolutionError(
            f"could not resolve a band inside ({a[wide][0]!r}, {b[wide][0]!r})"
        )
    if add_pts:
        Es = np.concatenate([Es, *add_pts])
        trs = np.concatenate([trs, *add_trs])
        order = np.argsort(Es)
        Es, trs = Es[order], trs[order]

    # inside runs [starts[r], ends[r]]; each run's outer edges are refined
    # between its end samples and their outside neighbours
    inside = np.abs(trs) <= 2.0
    npts = len(Es)
    step = np.diff(np.concatenate([[0], inside.astype(np.int8), [0]]))
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1) - 1
    has_lo, has_hi = starts > 0, ends < npts - 1
    edges = _band_edges(
        tr_of, Es, trs,
        np.concatenate([starts[has_lo] - 1, ends[has_hi] + 1]),
        np.concatenate([starts[has_lo], ends[has_hi]]),
    )
    n_lo = int(has_lo.sum())
    lo_edges, hi_edges = iter(edges[:n_lo]), iter(edges[n_lo:])
    raw_bands = []
    for i, j in zip(starts, ends):
        lo, lo_sign = (Es[0], 0) if i == 0 else next(lo_edges)
        hi, hi_sign = (Es[-1], 0) if j == npts - 1 else next(hi_edges)
        if hi > lo:
            raw_bands.append((lo, hi, lo_sign, hi_sign))

    # split bands at interior tangencies (|trace| returning to 2 inside)
    splits = _tangencies(system, tr_of, raw_bands, grid, tangency_tol)
    final = []
    for (lo, hi, lo_sign, hi_sign), cuts in zip(raw_bands, splits):
        cuts.sort()
        # near-duplicate refinements of the same touching point collapse
        deduped = []
        for s in cuts:
            if deduped and abs(s[0] - deduped[-1][1]) <= 1e-9 * max(1.0, abs(s[0])):
                continue
            deduped.append(s)
        cur_lo, cur_losgn = lo, lo_sign
        for sL, sR, sgn in deduped:
            if sL <= cur_lo or sR >= hi:
                continue
            final.append(Band(cur_lo, sL, cur_losgn, sgn))
            cur_lo, cur_losgn = sR, sgn
        final.append(Band(cur_lo, hi, cur_losgn, hi_sign))

    final.sort(key=lambda b: b.lo)
    return BandSet(
        bands=tuple(final),
        kind=system.kind,
        period=system.period,
        e_min=e_min,
        e_max=e_max,
    )


# band edges and tangencies are refined to the last few ulps
_EDGE_TOL = dict(xtol=1e-14, rtol=8.9e-16)


def _band_edges(tr_of, Es, trs, i_out, i_in):
    """(edge, sign) where |trace| crosses 2 between each outside sample
    i_out and its inside neighbour i_in, all brackets solved together."""
    sign = np.where(trs[i_out] >= 0.0, 1, -1)
    two = 2.0 * sign
    out_first = Es[i_out] < Es[i_in]
    a = np.where(out_first, Es[i_out], Es[i_in])
    b = np.where(out_first, Es[i_in], Es[i_out])
    fa = np.where(out_first, trs[i_out], trs[i_in]) - two
    fb = np.where(out_first, trs[i_in], trs[i_out]) - two
    # a zero at an end is the edge; same signs mean the inside sample sits
    # within tolerance of the edge already
    edge = np.where(fa == 0.0, a, np.where(fb == 0.0, b, Es[i_in]))
    edges = list(zip(edge, sign.tolist()))
    k = np.flatnonzero((fa != 0.0) & (fb != 0.0) & ~(fa * fb > 0))
    roots = util.brentq(lambda x, lanes: tr_of(x) - two[k[lanes]],
                        a[k], b[k], maxiter=200, fa=fa[k], fb=fb[k], **_EDGE_TOL)
    for kk, r in zip(k.tolist(), roots.tolist()):
        edges[kk] = (r, edges[kk][1])
    return edges


def _tangencies(system, tr_of, raw_bands, grid, tangency_tol):
    """Per band, the (lo, hi, sign) cuts where |trace| returns to 2 inside
    it: a touching point (lo == hi) or a micro-gap between two edges."""
    splits = [[] for _ in raw_bands]
    if not raw_bands:
        return splits
    m = max(64, min(512, grid // len(raw_bands)))
    gridE = np.stack([np.linspace(lo, hi, m + 1) for lo, hi, _, _ in raw_bands])
    gtr = tr_of(gridE.ravel()).reshape(gridE.shape)
    g = np.abs(gtr)
    # sampled maxima can sit visibly below 2 when the grid straddles the
    # touching point, so the filter stays loose and the refined trace value
    # decides
    peak = (g[:, 1:-1] >= g[:, :-2]) & (g[:, 1:-1] >= g[:, 2:]) & (g[:, 1:-1] >= 1.9)
    band, idx = np.nonzero(peak)
    if not band.size:
        return splits
    idx = idx + 1
    aE, bE = gridE[band, idx - 1], gridE[band, idx + 1]
    d = system.trace_derivative(np.concatenate([aE, bE]))
    da, db = d[:band.size], d[band.size:]
    turn = da * db < 0
    band, idx, aE, bE, da, db = (v[turn] for v in (band, idx, aE, bE, da, db))
    if not band.size:
        return splits
    Estar = util.brentq(
        lambda x, lanes: system.trace_derivative(x),
        aE, bE, maxiter=200, fa=da, fb=db, **_EDGE_TOL)
    tstar = tr_of(Estar)
    sgn = np.where(tstar >= 0.0, 1, -1)
    touch = np.abs(tstar) >= 2.0 - tangency_tol
    # a genuine micro-gap: refine both crossing edges, each bracketed by
    # the nearest grid sample inside the band on its side of the peak (a
    # gap wider than the grid step leaves the peak's neighbours outside)
    gap = np.flatnonzero(touch & (np.abs(tstar) > 2.0 + tangency_tol))
    rows, peak_at = band[gap], idx[gap][:, None]
    inside = sgn[gap][:, None] * gtr[rows] <= 2.0
    cols = np.arange(m + 1)
    left = np.where(inside & (cols < peak_at), cols, -1).max(axis=1)
    right = np.where(inside & (cols > peak_at), cols, m + 1).min(axis=1)
    lost = (left < 0) | (right > m)
    if lost.any():
        c = gap[lost][0]
        raise ResolutionError(
            f"micro-gap at {float(Estar[c])!r} reaches past its band's "
            "tangency grid"
        )
    two = np.tile(2.0 * sgn[gap], 2)
    ends = util.brentq(
        lambda x, lanes: tr_of(x) - two[lanes],
        np.concatenate([gridE[rows, left], Estar[gap]]),
        np.concatenate([Estar[gap], gridE[rows, right]]),
        fa=np.concatenate([gtr[rows, left], tstar[gap]]) - two,
        fb=np.concatenate([tstar[gap], gtr[rows, right]]) - two,
        **_EDGE_TOL).tolist()
    gap_ends = dict(zip(gap.tolist(), zip(ends[:gap.size], ends[gap.size:])))
    for c in np.flatnonzero(touch).tolist():
        eL, eR = gap_ends.get(c, (float(Estar[c]), float(Estar[c])))
        splits[band[c]].append((eL, eR, int(sgn[c])))
    return splits


def discrete_band_spectrum(system: DiscreteCocycle, **kw) -> BandSet:
    """Full spectrum of a discrete period-n operator; checks the band count."""
    lo, hi = system.scan_range()
    bs = band_spectrum(system, lo, hi, **kw)
    if len(bs) != system.sites:
        raise ResolutionError(
            f"found {len(bs)} bands for a period-{system.sites} operator; "
            "increase the scan grid"
        )
    return bs


# ---------------------------------------------------------------------------
# rotation angle, integrated density of states, Lyapunov exponent
# ---------------------------------------------------------------------------


def rotation_angle_at(system, E):
    """Monodromy rotation angle in turns, for energies inside bands."""
    Earr, scalar = _as_batch(E)
    M = system.monodromy(Earr)
    th = sl2.rotation_angles2(M)
    return float(th[0]) if scalar else th


def section_points(system, E, times, margin: float = 0.0):
    """Invariant section z(E, t) = A(E, 0, t) . u(E) over a 1-d energy batch.

    u(E) is the upper-half-plane fixed point of the monodromy and A(E, 0, t)
    the prefix transfer to each time (continuum) or site (discrete) t, so
    z(E, t) is the fixed point of the monodromy based at t.  Returns a
    complex (K, len(times)) array, nan on the energies with
    |trace| >= 2 - margin.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        M = system.monodromy(E)
        u = np.where(np.abs(sl2.tr2(M)) < 2.0 - margin, sl2.fixed_points2(M),
                     np.nan)
        pref = system.prefix_grid(E, times)
        return sl2.moebius2(pref, np.broadcast_to(u[:, None], pref.shape[:2]))


def ids(system, E, bandset: BandSet):
    """Integrated density of states per unit length (continuum) or site.

    Inside band m the value interpolates between m/period and
    (m+1)/period through the monodromy rotation angle; on gaps it is
    locally constant.  Works on scalars and arrays; one ``monodromy`` call
    serves every band-interior energy.
    """
    Earr, scalar = _as_batch(E)
    Earr = Earr.astype(float)
    P = bandset.period
    lo, hi, lo_sign = (np.array([getattr(b, f) for b in bandset.bands])
                       for f in ("lo", "hi", "lo_sign"))
    # m bands lie wholly below E; E is in band m once it reaches its lo
    m = np.searchsorted(hi, Earr, side="left")
    lo_m, hi_m = np.append(lo, np.inf)[m], np.append(hi, np.inf)[m]
    inband = Earr >= lo_m
    if np.any(lo_sign[m[inband]] == 0):
        raise ValidationError(
            "band was clipped by the scan range; rescan from below the spectrum"
        )
    # gaps and band edges are exact; interior values use the rotation angle
    above_lo = inband & (Earr > lo_m)
    out = (m + (above_lo & (Earr >= hi_m))) / P
    inner = np.flatnonzero(above_lo & (Earr < hi_m))
    if inner.size:
        e, mi = Earr[inner], m[inner]
        M = system.monodromy(e)
        with np.errstate(invalid="ignore"):
            theta = sl2.rotation_angles2(M)
        rising = lo_sign[mi] >= 0
        if system.kind == "continuum":
            s = np.where(rising, 2.0 * theta, 2.0 * theta - 1.0)
        else:
            s = np.where(rising, 2.0 * (1.0 - theta), 1.0 - 2.0 * theta)
        s = np.clip(s, 0.0, 1.0)
        # too close to an edge for the angle: take the nearer edge's value
        near = np.abs(sl2.tr2(M)) >= 2.0 - sl2.ELLIPTIC_MARGIN
        s = np.where(near, e - lo[mi] > hi[mi] - e, s)
        out[inner] = (mi + s) / P
    return float(out[0]) if scalar else out


def density(system, E, *, t_samples: int = 512):
    """Density of states dN/dE at energies strictly inside bands.

    dN/dE = (1 / 2 pi) mean w(z) over the invariant section z, with
    w = 1 / Im z over t_samples times (continuum) or w = |z|^2 / Im z over
    the n sites (discrete); see fixed_point_density.  One batched call for
    all energies; raises NotEllipticError if an energy is not inside a
    band.
    """
    Earr, scalar = _as_batch(E)
    out = fixed_point_density(system, Earr.astype(float), t_samples)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NotEllipticError(f"energy {Earr[bad[0]]!r} is not inside a band")
    return float(out[0]) if scalar else out


def fixed_point_density(system, E, t_samples: int = 512):
    """dN/dE over a 1-d energy batch from the invariant section; nan
    outside the bands.

    With z = section_points(system, E, .) the density is a period average
    of a per-kind weight:
      continuum  dN/dE = (1 / 2 pi) mean_t 1 / Im z(E, t), over t_samples
                 equally spaced times t in [0, period);
      discrete   dN/dE = (1 / 2 pi) mean_j |z(E, j)|^2 / Im z(E, j), over
                 the sites j = 0 .. n-1.
    Both are exact up to the time sampling of the continuum average: the
    weight is the squared modulus of the Bloch solution normalized to unit
    Wronskian, u for the continuum state (u', u) and u(j) for the discrete
    state (u(j), u(j-1)), and its period mean is the rotation number's
    energy derivative (Johnson & Moser, Commun. Math. Phys. 84, 1982).
    """
    if system.kind == "continuum":
        times = np.linspace(0.0, system.period, t_samples, endpoint=False)
    else:
        times = np.arange(system.sites)
    z = section_points(system, E, times)
    with np.errstate(invalid="ignore", divide="ignore"):
        weight = 1.0 / z.imag if system.kind == "continuum" else (
            (z.real * z.real + z.imag * z.imag) / z.imag)
        return np.mean(weight, axis=1) / (2.0 * np.pi)


def lyapunov(system, E):
    """Top Lyapunov exponent per unit length (continuum) or site (discrete).

    Computed from the monodromy spectral radius, so it vanishes
    identically on bands without any clamping tolerance.
    """
    Earr, scalar = _as_batch(E)
    tr = np.atleast_1d(system.trace(Earr))
    half = np.abs(tr) / 2.0
    rho = half + np.sqrt(np.maximum(half * half - 1.0, 0.0))
    out = np.log(np.maximum(rho, 1.0)) / system.period
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# growth functional and resonance helper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    value: float
    sup_dist: float
    base_dist: float
    arg_sup: float


def growth_value(system, E: float, t0: float = 0.0, samples: int = 2048) -> GrowthReport:
    """Smallest sup-norm growth over all unit initial data, elliptic case.

    Equals sup_t exp((d(u(t), i) - d(u(t0), i)) / 2) where u(t) is the
    invariant-section point and d is the hyperbolic distance: starting
    from the most contracted direction at t0, recurrent rotation phases
    push the orbit up to the worst frame discrepancy.
    """
    if system.kind == "continuum":
        grid = np.linspace(0.0, system.period, samples, endpoint=False)
    else:
        grid = np.arange(system.sites)
    # the base point t0 need not be on the grid: it rides along as one more
    # time
    z = section_points(system, np.array([float(E)]), np.append(grid, t0),
                       margin=sl2.ELLIPTIC_MARGIN)[0]
    if np.isnan(z[0]):
        raise NotEllipticError(f"energy {E!r} is not elliptic")
    dists = sl2.hyp_dist2(z[:-1], np.full(grid.shape, 1j))
    d0 = float(sl2.hyp_dist2(z[-1], 1j))
    k = int(np.argmax(dists))
    sup_d = float(dists[k])
    return GrowthReport(
        value=math.exp((sup_d - d0) / 2.0),
        sup_dist=sup_d,
        base_dist=d0,
        arg_sup=float(grid[k]),
    )


def resonance_gap(theta: float, qmax: int = 50) -> float:
    """min over 1 <= q <= qmax of dist(q theta, Z)/q: closeness to low rationals."""
    best = math.inf
    for q in range(1, qmax + 1):
        x = q * theta
        d = abs(x - round(x)) / q
        if d < best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Bloch waves, completeness checks, band norm integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlochWave:
    """Normalized positive-frequency Bloch solution at one energy."""

    theta: float
    x0: np.ndarray  # complex (2,), state (u(0), u(-1))
    beta: float

    def states(self, system, E, sites):
        """Complex states x_j = (u(j), u(j-1)) along an array of sites."""
        pref = system.prefix_grid(np.array([float(E)]), np.asarray(sites, dtype=int))[0]
        return np.einsum("jab,b->ja", pref.astype(complex), self.x0)


def bloch_pair(system: DiscreteCocycle, E: float) -> BlochWave:
    """Eigen-solution of the monodromy with eigenvalue in the upper circle.

    The state is scaled so the conserved wedge of the solution with its
    conjugate equals i, which makes completeness integrals come out
    parameter-free.
    """
    M = system.monodromy(np.array([float(E)]))[0]
    tr = float(M[0, 0] + M[1, 1])
    if abs(tr) >= 2.0 - sl2.ELLIPTIC_MARGIN:
        raise NotEllipticError(f"energy {E!r} is not elliptic")
    w, v = np.linalg.eig(M)
    idx = int(np.argmax(w.imag))
    lam = w[idx]
    vec = v[:, idx]
    theta = math.atan2(lam.imag, lam.real) / (2.0 * math.pi) % 1.0
    # conserved pairing of the solution with its conjugate
    wr = vec[0] * np.conj(vec[1]) - np.conj(vec[0]) * vec[1]
    beta = wr.imag
    if beta < 0:
        vec = np.conj(vec)
        lam = np.conj(lam)
        theta = (1.0 - theta) % 1.0
        beta = -beta
    if beta <= 0:
        raise NotEllipticError(f"degenerate pairing at energy {E!r}")
    vec = vec / math.sqrt(beta)
    return BlochWave(theta=theta, x0=vec, beta=beta)


def _band_halves(band: Band):
    mid = 0.5 * (band.lo + band.hi)
    return (band.lo, mid, +1), (band.hi, mid, -1)


def _edge_quad_nodes(band: Band, order: int):
    """Quadrature nodes/weights on a band with sqrt substitution at edges.

    On each half the substitution E = edge +- x^2 regularizes the
    inverse-sqrt blowup of band-edge densities; returns (E_nodes, dE_weights).
    """
    Es, Ws = [], []
    for edge, mid, s in _band_halves(band):
        xs, ws = gauss_nodes(0.0, math.sqrt(abs(mid - edge)), order)
        Es.append(edge + s * xs * xs)
        Ws.append(ws * 2.0 * xs)
    return np.concatenate(Es), np.concatenate(Ws)


def spectral_parseval(system: DiscreteCocycle, bandset: BandSet, n: int,
                      order: int = 48) -> float:
    """(1/2pi) integral over all bands of |u(n)|^2 + |u(n-1)|^2 dE.

    For the Bloch pair normalized to unit Wronskian (bloch_pair) this is
    the diagonal completeness integral and should equal 1 at every site n.
    With z_n = section_points(system, E, [n]) = u(n) / u(n-1), the
    integrand is (|z_n|^2 + 1) / (2 Im z_n); it is evaluated on the edge
    quadrature nodes of all bands at once.
    """
    nodes = [_edge_quad_nodes(band, order) for band in bandset.bands]
    if not nodes:
        return 0.0
    Es, Ws = (np.concatenate(v) for v in zip(*nodes))
    z = section_points(system, Es, [n], margin=sl2.ELLIPTIC_MARGIN)[:, 0]
    bad = np.flatnonzero(np.isnan(z))
    if bad.size:
        raise NotEllipticError(f"energy {Es[bad[0]]!r} is not elliptic")
    vals = (z.real * z.real + z.imag * z.imag + 1.0) / (2.0 * z.imag)
    return float(np.sum(vals * Ws)) / (2.0 * math.pi)


def band_norm_integral(system, band: Band, n, order: int = 64) -> float:
    """(1/4pi) integral over one band of (|A_n| + |A_n|^-1) dE.

    A_n is the prefix transfer to time/site n; the integrand is
    sqrt(frob^2 + 2) for unit-determinant matrices.
    """
    Es, Ws = gauss_nodes(band.lo, band.hi, order)
    pref = system.prefix(Es, n)
    f2 = np.einsum("kij,kij->k", pref, pref)
    vals = np.sqrt(f2 + 2.0)
    return float(np.sum(vals * Ws)) / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# density uniformness report (continuum)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformnessReport:
    level: float
    band_deficits: tuple
    total_deficit: float
    total_mass: float

    def to_json(self):
        return {
            "level": self.level,
            "band_deficits": list(self.band_deficits),
            "total_deficit": self.total_deficit,
            "total_mass": self.total_mass,
        }


def uniformness_check(system, bandset: BandSet, level: float, *,
                      scan: int = 33, order: int = 24,
                      t_samples: int = 512) -> UniformnessReport:
    """Mass of the density of states sitting above a threshold level.

    For each band, finds where dN/dE >= level (always near the edges,
    sometimes in interior humps) and integrates the density over that
    region with a sqrt substitution at the edges.  The deficit per band
    is that mass; small deficits mean the band's spectral weight is
    spread uniformly rather than concentrated.

    Per band half the density is evaluated in a few batched calls: the
    threshold scan, each lockstep iteration of the crossing solve, and
    all midpoints and Gauss nodes of the sub-intervals together.
    """
    if system.kind != "continuum":
        raise ValidationError("uniformness check applies to continuum systems")

    deficits = []
    total_mass = 0.0
    for band in bandset.bands:
        band_deficit = 0.0
        for edge, mid, s in _band_halves(band):
            half = math.sqrt(abs(mid - edge))

            def dens(x):
                # density at E = edge + s x^2, batched over x
                return density(system, edge + s * x * x, t_samples=t_samples)

            # adaptive floor: tangent edges approach |trace| = 2
            # quadratically, so back off until the fixed point resolves
            x0 = half * 1e-4
            while True:
                try:
                    d0 = dens(np.array([x0]))[0]
                    break
                except NotEllipticError:
                    x0 *= 4.0
                    if x0 > half / 4.0:
                        raise
            xs = np.linspace(x0, half, scan)
            excess = dens(xs) - level
            # crossings of the threshold in the substituted variable
            zero = np.flatnonzero(excess[:-1] == 0.0)
            cross = np.flatnonzero((excess[:-1] != 0.0)
                                   & (excess[:-1] * excess[1:] < 0))
            roots = util.brentq(lambda x, lanes: dens(x) - level,
                                xs[cross], xs[cross + 1], xtol=1e-12,
                                maxiter=200, fa=excess[cross],
                                fb=excess[cross + 1])
            at = dict(zip(zero.tolist(), xs[zero]))
            at.update(zip(cross.tolist(), roots.tolist()))
            cuts = [xs[0]] + [at[i] for i in sorted(at)] + [half]
            parts = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
            quad = [gauss_nodes(a, b, order) for a, b in parts]
            mids = [0.5 * (a + b) for a, b in parts]
            d = dens(np.concatenate([mids] + [x for x, _ in quad]))
            above = d[:len(parts)] - level >= 0.0
            for k, (nodes, wts) in enumerate(quad):
                # density mass element in the substituted variable
                g = d[len(parts) + k * order:][:order] * 2.0 * nodes
                mass = float(sum(v * w for v, w in zip(g, wts)))
                total_mass += mass
                if above[k]:
                    band_deficit += mass
            # account for the unscanned sliver at the very edge; when the
            # density diverges there the mass element 2 x density(x) tends to
            # a constant, otherwise the sliver is O(x^2) and negligible
            sliver = float(d0 * 2.0 * x0) * x0
            total_mass += sliver
            if d0 - level >= 0.0:
                band_deficit += sliver
        deficits.append(band_deficit)
    return UniformnessReport(
        level=level,
        band_deficits=tuple(deficits),
        total_deficit=float(sum(deficits)),
        total_mass=total_mass,
    )


# ---------------------------------------------------------------------------
# rotation monotonicity
# ---------------------------------------------------------------------------


def check_rotation_monotone(system, band: Band, samples: int = 64,
                            tol: float = 1e-10):
    """Verify the rotation angle is monotone across a band interior.

    Continuum angles increase with energy; discrete angles decrease.
    Returns (ok, worst_violation).
    """
    pad = 1e-6 * max(band.width, 1e-6)
    Es = np.linspace(band.lo + pad, band.hi - pad, samples)
    th = rotation_angle_at(system, Es)
    th = np.unwrap(th, period=1.0)
    diffs = np.diff(th)
    if system.kind == "continuum":
        worst = float(np.min(diffs))
        return worst > -tol, worst
    worst = float(np.max(diffs))
    return worst < tol, worst
