"""Transfer matrices and spectral quantities for periodic one-dimensional
Schrodinger operators, continuum and discrete.

Continuum states are (u', u) columns evolving by dA/ds = [[0, V-E], [1, 0]] A;
discrete states are (u(j), u(j-1)) columns advanced by [[E - v_j, -1], [1, 0]].
Both cocycle classes expose the same surface: prefix transfer from time 0,
transfer between times, period monodromy from any base point, trace and
trace derivative over energy arrays.

Zero stretches of a continuum potential are crossed with the closed-form
propagator built from cos(sqrt(E) L) and sin(sqrt(E) L)/sqrt(E), which are
entire in E, so traces extend to complex energy and derivatives can be taken
by complex step.  Nonzero pieces are integrated once per energy batch with a
dense high-order solution that is cached and shared between all potentials
containing the same piece.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import sl2
from .errors import (
    IntegrationFailureError,
    NotEllipticError,
    ResolutionError,
    ValidationError,
)
from .potentials import ContinuumPotential, DiscreteFamily, DiscretePotential, Gap
from .util import canonical_json, gauss_nodes

_METHOD = "DOP853"
_RTOL = 1e-12
_ATOL = 1e-14
# identifies the numerics behind every piece propagator; results computed
# under another engine must not be served from a cache
ENGINE = f"{_METHOD} rtol={_RTOL!r} atol={_ATOL!r}"
_CHUNK = 256
_SMALL_X = 1e-10


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
# piece integration with shared caches
# ---------------------------------------------------------------------------


class _FifoCache:
    def __init__(self, cap: int):
        self.cap = cap
        self._d = OrderedDict()
        self._lock = threading.Lock()

    def get_or_make(self, key, maker):
        with self._lock:
            if key in self._d:
                self._d.move_to_end(key)
                return self._d[key]
        val = maker()
        with self._lock:
            self._d.setdefault(key, val)
            self._d.move_to_end(key)
            while len(self._d) > self.cap:
                self._d.popitem(last=False)
        return val


_FULL_CACHE = _FifoCache(2048)
_DENSE_CACHE = _FifoCache(48)


def _integrate_piece(base_fn, shift, timescale, length, E, dense):
    """Fundamental solution of one piece for an energy batch.

    Returns the dense OdeSolution when dense=True, otherwise the (K,2,2)
    endpoint propagator.  E is a 1-d array, real or complex.
    """
    E = np.asarray(E)
    K = E.shape[0]
    cdtype = complex if np.iscomplexobj(E) else float
    y0 = np.broadcast_to(np.eye(2, dtype=cdtype), (K, 2, 2)).ravel().copy()

    def rhs(s, y):
        A = y.reshape(K, 2, 2)
        v = float(base_fn(np.array([shift + timescale * s]))[0])
        out = np.empty_like(A)
        out[:, 0, :] = (v - E)[:, None] * A[:, 1, :]
        out[:, 1, :] = A[:, 0, :]
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, length),
        y0,
        method=_METHOD,
        rtol=_RTOL,
        atol=_ATOL,
        dense_output=dense,
        t_eval=None if dense else [length],
        max_step=length / 16.0,
    )
    if not sol.success:
        raise IntegrationFailureError(
            f"piece integration failed: {sol.message}", interval=(0.0, length)
        )
    if dense:
        return sol.sol
    A = sol.y[:, -1].reshape(K, 2, 2)
    if not np.iscomplexobj(A):
        A = sl2.renorm2(A)
    return A


def _energy_key(E):
    E = np.asarray(E)
    return (E.dtype.char, E.tobytes())


@dataclass(frozen=True)
class _PieceHandle:
    """Identity and evaluators for one nonzero piece of a potential."""

    base_json: str
    base_fn: object
    shift: float
    timescale: float
    length: float

    def _key(self, E, tag):
        return (tag, self.base_json, self.shift, self.timescale, self.length,
                *_energy_key(E))

    def full(self, E):
        return _FULL_CACHE.get_or_make(
            self._key(E, "full"),
            lambda: _integrate_piece(self.base_fn, self.shift, self.timescale,
                                     self.length, E, dense=False),
        )

    def partial(self, E, s):
        """Propagator from the piece start to local time s in [0, length]."""
        if s <= 0.0:
            K = np.asarray(E).shape[0]
            dt = complex if np.iscomplexobj(np.asarray(E)) else float
            return np.broadcast_to(np.eye(2, dtype=dt), (K, 2, 2)).copy()
        if s >= self.length:
            return self.full(E)
        dense = _DENSE_CACHE.get_or_make(
            self._key(E, "dense"),
            lambda: _integrate_piece(self.base_fn, self.shift, self.timescale,
                                     self.length, E, dense=True),
        )
        K = np.asarray(E).shape[0]
        A = dense(s).reshape(K, 2, 2)
        if not np.iscomplexobj(A):
            A = sl2.renorm2(A)
        return A


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


def _times_period_powers(M, ks, in_period):
    """Stack (K, len(ks), 2, 2) of in_period(i) . M**ks[i].

    Each distinct power is computed once; M**-k inverts M**k.
    """
    pows = {k: sl2.power2(M, int(k)) if k > 0 else sl2.inv2(sl2.power2(M, int(-k)))
            for k in np.unique(ks) if k != 0}
    out = np.empty((M.shape[0], len(ks), 2, 2), dtype=M.dtype)
    for i, k in enumerate(ks):
        A = in_period(i)
        out[:, i] = A if k == 0 else sl2.mul2(A, pows[k])
    return out


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
        """(start, length, handle-or-None) per segment; None marks a gap."""
        out = []
        bounds = self.pot.boundaries
        for i, seg in enumerate(self.pot.segments):
            if isinstance(seg, Gap):
                out.append((float(bounds[i]), seg.length, None))
            else:
                base = self.pot.bases[seg.base]
                handle = _PieceHandle(
                    base_json=canonical_json(base.to_json()),
                    base_fn=base,
                    shift=seg.shift,
                    timescale=seg.timescale,
                    length=seg.length,
                )
                out.append((float(bounds[i]), seg.length, handle))
        return tuple(out)

    def _chunked(self, E, fn):
        """Apply fn to <=_CHUNK-sized energy blocks and stack the results."""
        if E.shape[0] <= _CHUNK:
            return fn(E)
        parts = [fn(E[i:i + _CHUNK]) for i in range(0, E.shape[0], _CHUNK)]
        return np.concatenate(parts, axis=0)

    def _entry_matrices(self, E):
        """Cumulative A(0 -> segment start) for each segment, plus monodromy."""
        K = E.shape[0]
        dt = complex if np.iscomplexobj(E) else float
        cur = np.broadcast_to(np.eye(2, dtype=dt), (K, 2, 2)).copy()
        entries = [cur]
        for start, length, handle in self._segments:
            blk = free_block(E, length) if handle is None else handle.full(E)
            cur = sl2.mul2(blk, cur)
            entries.append(cur)
        return entries

    def _prefix_in_period(self, E, t, entries):
        """A(0 -> t) for a scalar t in [0, period]."""
        segs = self._segments
        # locate the segment containing t
        idx = len(segs) - 1
        for i, (start, length, _) in enumerate(segs):
            if t < start + length:
                idx = i
                break
        start, length, handle = segs[idx]
        local = min(max(t - start, 0.0), length)
        if handle is None:
            blk = free_block(E, local)
        else:
            blk = handle.partial(E, local)
        return sl2.mul2(blk, entries[idx])

    def prefix(self, E, t):
        """A(E, 0, t) for scalar t (may exceed the period or be negative)."""
        return self.prefix_grid(E, [t])[..., 0, :, :]

    def prefix_grid(self, E, t_grid):
        """A(E, 0, t) for an ascending array of times; returns (K, Nt, 2, 2)."""
        Earr, scalar = _as_batch(E)
        t_grid = np.asarray(t_grid, dtype=float)

        def run(block):
            entries = self._entry_matrices(block)
            T = self.period
            ks = np.floor(t_grid / T).astype(int)
            return _times_period_powers(
                entries[-1], ks,
                lambda i: self._prefix_in_period(block, t_grid[i] - ks[i] * T,
                                                 entries))

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
            P = self._prefix_in_period(block, rem, entries)
            return sl2.mul2(sl2.mul2(P, M), sl2.inv2(P))

        out = self._chunked(Earr, run)
        return out[0] if scalar else out

    def trace(self, E):
        Earr, scalar = _as_batch(E)
        out = sl2.tr2(self.monodromy(Earr))
        return float(out[0]) if scalar and not np.iscomplexobj(out) else (
            out[0] if scalar else out)

    def trace_derivative(self, E, h: float = 1e-100):
        """d(trace)/dE by complex step; accurate and subtraction-free."""
        Earr, scalar = _as_batch(E)
        tr = self.trace(Earr.astype(complex) + 1j * h)
        out = np.imag(tr) / h
        return float(out[0]) if scalar else out

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

    def prefix(self, E, j):
        """A(E, 0, j) = S_{j-1} ... S_0 for integer j of either sign."""
        return self.prefix_grid(E, [j])[..., 0, :, :]

    def prefix_grid(self, E, sites):
        """A(E, 0, j) for an array of integers; returns (K, len, 2, 2)."""
        Earr, scalar = _as_batch(E)
        sites = np.asarray(sites, dtype=int)
        table = self._prefix_table(Earr)
        ks = sites // self.sites
        rems = sites - ks * self.sites
        out = _times_period_powers(table[-1], ks, lambda i: table[rems[i]])
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

    def trace(self, E):
        Earr, scalar = _as_batch(E)
        out = sl2.tr2(self.monodromy(Earr))
        return float(out[0]) if scalar else out

    def trace_derivative(self, E):
        """Exact derivative of the monodromy trace by the product rule."""
        Earr, scalar = _as_batch(E)
        n = self.sites
        K = Earr.shape[0]
        prefix = self._prefix_table(Earr)
        steps = step_matrices(Earr, np.asarray(self.pot.values))
        suffix = np.empty((n, K, 2, 2))
        cur = np.broadcast_to(np.eye(2), (K, 2, 2))
        for j in range(n - 1, -1, -1):
            suffix[j] = cur
            cur = sl2.mul2(cur, steps[:, j])
        # d(step)/dE = [[1,0],[0,0]], so each term contributes (P Q)[0,0]
        out = np.zeros(K)
        for j in range(n):
            PQ = sl2.mul2(prefix[j], suffix[j])
            out += PQ[:, 0, 0]
        return float(out[0]) if scalar else out

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

    def locate(self, E: float):
        """('band', m) if E lies in band m, else ('gap', m) with m bands below."""
        m = 0
        for i, b in enumerate(self.bands):
            if E < b.lo:
                return ("gap", i)
            if E <= b.hi:
                return ("band", i)
            m = i + 1
        return ("gap", m)

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


def _trace_sign(tr: float) -> int:
    return 1 if tr >= 0.0 else -1


def band_spectrum(system, e_min: float, e_max: float, *, grid: int = 4096,
                  tangency_tol: float = 1e-9, budget: int = 2_000_000) -> BandSet:
    """Locate the closed-band decomposition of [e_min, e_max].

    Bands are maximal intervals with |trace| <= 2, split at interior
    tangency points where the trace touches +-2, so touching bands are
    reported separately and closed gaps are kept visible.
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
    add_pts, add_trs = [], []
    for i in range(len(Es) - 1):
        if (not inside[i]) and (not inside[i + 1]) and trs[i] * trs[i + 1] < 0:
            a, fa, b, fb = Es[i], trs[i], Es[i + 1], trs[i + 1]
            found = None
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = float(tr_of(np.array([m]))[0])
                add_pts.append(m)
                add_trs.append(fm)
                if abs(fm) <= 2.0:
                    found = m
                    break
                if fa * fm < 0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
                if b - a < 1e-15 * max(1.0, abs(a)):
                    break
            if found is None and b - a > 1e-15 * max(1.0, abs(a)):
                raise ResolutionError(
                    f"could not resolve a band inside ({Es[i]!r}, {Es[i+1]!r})"
                )
    if add_pts:
        Es = np.concatenate([Es, np.asarray(add_pts)])
        trs = np.concatenate([trs, np.asarray(add_trs)])
        order = np.argsort(Es)
        Es, trs = Es[order], trs[order]

    inside = np.abs(trs) <= 2.0

    def edge_between(i_out, i_in):
        """Refine the band edge between an outside and an inside sample."""
        sign = _trace_sign(trs[i_out])
        f = lambda x: float(tr_of(np.array([x]))[0]) - 2.0 * sign
        a, b = min(Es[i_out], Es[i_in]), max(Es[i_out], Es[i_in])
        fa, fb = f(a), f(b)
        if fa == 0.0:
            return a, sign
        if fb == 0.0:
            return b, sign
        if fa * fb > 0:
            # the inside sample sits within tolerance of the edge already
            return (Es[i_in], sign)
        return brentq(f, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=200), sign

    raw_bands = []
    i = 0
    npts = len(Es)
    while i < npts:
        if inside[i]:
            j = i
            while j + 1 < npts and inside[j + 1]:
                j += 1
            if i == 0:
                lo, lo_sign = Es[0], 0
            else:
                lo, lo_sign = edge_between(i - 1, i)
            if j == npts - 1:
                hi, hi_sign = Es[-1], 0
            else:
                hi, hi_sign = edge_between(j + 1, j)
            if hi > lo:
                raw_bands.append((lo, hi, lo_sign, hi_sign))
            i = j + 1
        else:
            i += 1

    # split bands at interior tangencies (|trace| returning to 2 inside)
    final = []
    for lo, hi, lo_sign, hi_sign in raw_bands:
        splits = []
        width = hi - lo
        if width > 0:
            m = max(64, min(512, grid // max(len(raw_bands), 1)))
            gridE = np.linspace(lo, hi, m + 1)
            gtr = tr_of(gridE)
            cand = []
            for idx in range(1, m):
                a_ = abs(gtr[idx])
                # sampled maxima can sit visibly below 2 when the grid
                # straddles the touching point, so the filter stays loose and
                # the refined trace value decides
                if a_ >= abs(gtr[idx - 1]) and a_ >= abs(gtr[idx + 1]) and a_ >= 1.9:
                    cand.append(idx)
            for idx in cand:
                aE, bE = gridE[idx - 1], gridE[idx + 1]
                da = system.trace_derivative(aE)
                db = system.trace_derivative(bE)
                da = float(np.atleast_1d(da)[0])
                db = float(np.atleast_1d(db)[0])
                if da * db >= 0:
                    continue
                Estar = brentq(
                    lambda x: float(np.atleast_1d(system.trace_derivative(x))[0]),
                    aE, bE, xtol=1e-14, rtol=8.9e-16, maxiter=200,
                )
                tstar = float(tr_of(np.array([Estar]))[0])
                if abs(tstar) >= 2.0 - tangency_tol:
                    if abs(tstar) <= 2.0 + tangency_tol:
                        splits.append((Estar, Estar, _trace_sign(tstar)))
                    else:
                        # a genuine micro-gap: refine both crossing edges
                        sgn = _trace_sign(tstar)
                        f = lambda x: float(tr_of(np.array([x]))[0]) - 2.0 * sgn
                        eL = brentq(f, aE, Estar, xtol=1e-14, rtol=8.9e-16)
                        eR = brentq(f, Estar, bE, xtol=1e-14, rtol=8.9e-16)
                        splits.append((eL, eR, sgn))
        splits.sort()
        # near-duplicate refinements of the same touching point collapse
        deduped = []
        for s in splits:
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


def ids(system, E, bandset: BandSet):
    """Integrated density of states per unit length (continuum) or site.

    Inside band m the value interpolates between m/period and
    (m+1)/period through the monodromy rotation angle; on gaps it is
    locally constant.  Works on scalars and arrays.
    """
    Earr, scalar = _as_batch(E)
    out = np.empty(Earr.shape[0])
    P = bandset.period
    for i, e in enumerate(Earr):
        where, m = bandset.locate(float(e))
        if where == "gap":
            out[i] = m / P
            continue
        band = bandset.bands[m]
        if band.lo_sign == 0:
            raise ValidationError(
                "band was clipped by the scan range; rescan from below the spectrum"
            )
        # edge values are exact; interior values use the rotation angle
        if e <= band.lo or e >= band.hi:
            out[i] = (m if e <= band.lo else m + 1) / P
            continue
        M = system.monodromy(np.array([float(e)]))
        tr = float(sl2.tr2(M)[0])
        if abs(tr) >= 2.0 - sl2.ELLIPTIC_MARGIN:
            d_lo = e - band.lo
            d_hi = band.hi - e
            out[i] = (m if d_lo <= d_hi else m + 1) / P
            continue
        theta = float(sl2.rotation_angles2(M)[0])
        if system.kind == "continuum":
            s = 2.0 * theta if band.lo_sign >= 0 else 2.0 * theta - 1.0
        else:
            s = 2.0 * (1.0 - theta) if band.lo_sign >= 0 else 1.0 - 2.0 * theta
        s = min(max(s, 0.0), 1.0)
        out[i] = (m + s) / P
    return float(out[0]) if scalar else out


def density(system, E, bandset: BandSet = None, *, t_samples: int = 512,
            fd_step: float = 1e-6):
    """Density of states dN/dE at energies strictly inside bands.

    Continuum: fixed_point_density, one energy at a time.
    Discrete: finite difference of the rotation angle.
    """
    Earr, scalar = _as_batch(E)
    out = np.empty(Earr.shape[0])
    if system.kind == "continuum":
        # one energy per call keeps the piece caches keyed on single energies
        for i, e in enumerate(Earr):
            out[i] = fixed_point_density(system, np.array([float(e)]), t_samples)[0]
            if not np.isfinite(out[i]):
                raise NotEllipticError(f"energy {e!r} is not inside a band")
    else:
        n = system.sites
        for i, e in enumerate(Earr):
            h = fd_step * max(1.0, abs(float(e)))
            th_p = rotation_angle_at(system, float(e) + h)
            th_m = rotation_angle_at(system, float(e) - h)
            dth = th_p - th_m
            # guard against wrap-around of the angle representative
            if dth > 0.5:
                dth -= 1.0
            elif dth < -0.5:
                dth += 1.0
            out[i] = 2.0 * abs(dth / (2.0 * h)) / n
    return float(out[0]) if scalar else out


def fixed_point_density(system, E, t_samples: int = 512):
    """Continuum dN/dE over a 1-d energy batch; nan outside the bands.

    Averages 1/(2 pi Im u(E, t)) over t_samples times in the period, where
    u(E, t) is the elliptic fixed point of the monodromy based at t.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        u = sl2.fixed_points2(system.monodromy(E))
        grid = np.linspace(0.0, system.period, t_samples, endpoint=False)
        pref = system.prefix_grid(E, grid)
        us = sl2.moebius2(pref, np.broadcast_to(u[:, None], pref.shape[:2]))
        return np.mean(1.0 / us.imag, axis=1) / (2.0 * np.pi)


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
    Earr = np.array([float(E)])
    M = system.monodromy(Earr)
    tr = float(sl2.tr2(M)[0])
    if abs(tr) >= 2.0 - sl2.ELLIPTIC_MARGIN:
        raise NotEllipticError(f"energy {E!r} is not elliptic")
    u0 = sl2.fixed_points2(M)[0]
    if system.kind == "continuum":
        grid = np.linspace(0.0, system.period, samples, endpoint=False)
    else:
        grid = np.arange(system.sites)
    pref = system.prefix_grid(Earr, grid)[0]
    us = sl2.moebius2(pref, np.full(grid.shape, u0))
    dists = sl2.hyp_dist2(us, np.full(grid.shape, 1j))
    # base distance at t0 via its own prefix (t0 need not be on the grid)
    A0 = system.prefix(Earr, t0)[0]
    ut0 = sl2.moebius2(A0[None], np.array([u0]))[0]
    d0 = float(sl2.hyp_dist2(np.array([ut0]), np.array([1j]))[0])
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

    For the normalized Bloch pair this is the diagonal completeness
    integral and should equal 1 at every site n.
    """
    total = 0.0
    for band in bandset.bands:
        Es, Ws = _edge_quad_nodes(band, order)
        vals = np.empty(Es.shape[0])
        for i, e in enumerate(Es):
            wave = bloch_pair(system, float(e))
            x = wave.states(system, float(e), np.array([n]))[0]
            vals[i] = float(np.abs(x[0]) ** 2 + np.abs(x[1]) ** 2)
        total += float(np.sum(vals * Ws))
    return total / (2.0 * math.pi)


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
    """
    if system.kind != "continuum":
        raise ValidationError("uniformness check applies to continuum systems")

    def dens(e):
        return density(system, float(e), t_samples=t_samples)

    deficits = []
    total_mass = 0.0
    for band in bandset.bands:
        band_deficit = 0.0
        for edge, mid, s in _band_halves(band):
            half = math.sqrt(abs(mid - edge))

            def g(x):
                # density mass element in the substituted variable
                return dens(edge + s * x * x) * 2.0 * x

            def excess_sign(x):
                return dens(edge + s * x * x) - level

            # adaptive floor: tangent edges approach |trace| = 2
            # quadratically, so back off until the fixed point resolves
            x0 = half * 1e-4
            while True:
                try:
                    dens(edge + s * x0 * x0)
                    break
                except NotEllipticError:
                    x0 *= 4.0
                    if x0 > half / 4.0:
                        raise
            xs = np.linspace(x0, half, scan)
            signs = [excess_sign(x) for x in xs]
            # crossings of the threshold in the substituted variable
            cuts = [xs[0]]
            for i in range(len(xs) - 1):
                if signs[i] == 0.0:
                    cuts.append(xs[i])
                elif signs[i] * signs[i + 1] < 0:
                    cuts.append(brentq(excess_sign, xs[i], xs[i + 1],
                                       xtol=1e-12, maxiter=200))
            cuts.append(half)
            for a, b in zip(cuts[:-1], cuts[1:]):
                if b <= a:
                    continue
                m = 0.5 * (a + b)
                above = excess_sign(m) >= 0.0
                nodes, wts = gauss_nodes(a, b, order)
                mass = float(sum(g(x) * w for x, w in zip(nodes, wts)))
                total_mass += mass
                if above:
                    band_deficit += mass
            # account for the unscanned sliver at the very edge; when the
            # density diverges there the mass element 2 x density(x) tends to
            # a constant, otherwise the sliver is O(x^2) and negligible
            sliver = float(g(x0)) * x0
            total_mass += sliver
            if excess_sign(x0) >= 0.0:
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
