"""Transfer matrices and spectral quantities for periodic one-dimensional
Schrodinger operators, continuum and discrete.

Continuum states are (u', u) columns evolving by dA/ds = [[0, V-E], [1, 0]] A;
discrete states are (u(j), u(j-1)) columns advanced by [[E - v_j, -1], [1, 0]].
Both cocycle classes expose the same surface: prefix transfer from time 0,
transfer between times, period monodromy from any base point, trace and
its complex-step derivative over energy arrays.

Band spectra are certified by an oscillation count (rotation_count): the
Dirichlet solution's zeros over one period number the Dirichlet eigenvalues
below E, one in each closed gap (the oscillation theorem for Hill's
equation), so every band and gap band_spectrum reads off its trace scan is
checked against the count, and the scan is bisected where they disagree.
The scan reads most of its |trace| <= 2 flags off one interpolant
(_scan_traces; Berrut & Trefethen, SIAM Review 46, 2004): p of degree 16
through the exact trace at the 17 Chebyshev-Lobatto points of the scan
range decides a grid energy where ||p| - 2| > 2 max |p - p8| + 8 eps max |f|,
with p8 the interpolant of the even-indexed nodes, f the node values and
the first max over the grid.  The other energies are evaluated exactly; with
more than 17 of them, a node value that is not finite, or at most 68 grid
energies, the whole grid is, at the cost of the 17 node energies.  The edge
solve's bracket ends are evaluated exactly, so with the flags right the
bands are those of the exact scan bit for bit.  The margin is an estimate,
not a bound: a wrong flag cannot drop or invent a band, which the count
still certifies, but it can move an edge's last bits or make the scan raise
ResolutionError.

The count and the trace sign give every real energy one integer, its level
(sturm_level): 2k + 1 inside band k (counted from 0) and 2k in the gap above
k bands.  It is the package's one answer to "which band is E in": ids is
(k + s) / period with s from the monodromy rotation angle inside band k, and
j / period at the edges and gaps, with the integer j read off the count and
the trace sign; the energy sweeps pick band interiors by the trace alone.  No
scanned band edge enters either.

Density of states, growth, the completeness integral (and labverify's
crooked metric) are read off one object for both kinds, the invariant section
(section_points): the upper-half-plane fixed point of the monodromy,
carried along the period by the prefix transfers, batched over energies.
It is the one section pass, with one memory rule: blocks of at most
_SECTION_ELEMENTS // len(times) energies, each reduced to per-energy values
by the caller's reduction, so at most one block of the section is alive.
Densities are integrated over bands (the completeness integral, labverify's
IDS integral) by one rule, band_quadrature: E = edge +- x^2 on each half band.

Every continuum propagator is a product of closed-form exponentials
c I + s Omega of traceless matrices, with (c, s) = (cos w, sin w / w) entire
in w^2, so traces extend to complex energy and derivatives are taken by
complex step.  For real x = w^2 with |x| <= _SERIES_RADIUS, which holds for
every Magnus step at moderate energies, (c, s) are Taylor series in x at one
fixed degree: no transcendental call, and within 2^-52 relative.  Other real
x, and all complex x, go through sqrt, cos and sin.  The branch is chosen per
element, never from a whole batch (a degree read off a block's largest |x|
would make results depend on how energies are blocked).  Complex x stay on
libm because numpy's complex multiply can round differently in a loop's
vector body and its tail, so a complex series would depend on array length.
Zero stretches of the potential are crossed in one exact step
(free_block).  Nonzero pieces are crossed by sixth-order three-node
Gauss-Magnus steps (Blanes, Casas & Ros, BIT 40, 2000; Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 2009): for this generator the commutators close on
2 x 2 entries, so each step's exponent [[a, b], [c, -a]] has c independent
of E and a, b affine in E.  V is sampled once per piece, those five
coefficients are kept per step, and each step has determinant one.  A
cocycle fixes each piece's step count and coefficients once, by step
doubling against a stated tolerance; no propagator is kept between calls.
The period pass stays in (2, 2, ..., K) planes end to end: one _free_planes
call makes all gap exponentials, a piece's step planes feed both its product
and its prefix scan, and sl2.mul_planes (mul2's bits) chains them.  Stacks
are formed only where results leave the pass, C-contiguous: moebius2's
complex multiply rounds by memory layout (a strided grid moved density 1 ulp).
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
# real x with |x| <= _SERIES_RADIUS take the Taylor series of cos sqrt(x) and
# sin sqrt(x) / sqrt(x) at degree _SERIES_DEGREE; the radius is the largest
# double at which the dropped tail sum_{k > degree} |x|^k / (2k)! is below
# 2^-55.  Every Magnus step of the benchmark's padded bump up to E = 5 has
# |x| <= 3.1e-4 (x grows like h^2 E, and its 192 steps are 1/128 long);
# degree 5 covers such steps up to E of about 800.
_SERIES_DEGREE = 5
_SERIES_RADIUS = 0.048670055640572626
_COS_COEFS = tuple((-1) ** k / math.factorial(2 * k)
                   for k in range(_SERIES_DEGREE, -1, -1))
_SINC_COEFS = tuple((-1) ** k / math.factorial(2 * k + 1)
                    for k in range(_SERIES_DEGREE, -1, -1))
# identifies the numerics behind every piece propagator; results computed
# under another engine must not be served from a cache
ENGINE = (f"gauss-magnus6 step-doubling tol={_TOL!r} "
          f"start={_MIN_STEPS_PER_UNIT}/unit probes={_PROBE_OFFSETS} "
          f"cos-sinc=taylor{_SERIES_DEGREE}+libm "
          "density=invariant-section bands=sturm-count ids=sturm-level")
# energies, and energy-steps of the longest piece, per block; see _batch
_CHUNK = 256
_BLOCK_STEPS = 3 * 2 ** 14
# (energy, time) elements of the invariant section per block; see section_points
_SECTION_ELEMENTS = 2 ** 17
# complex x with |x| below this take a quadratic series in place of libm
_SMALL_X = 1e-10
# imaginary step of the complex-step trace derivative
_COMPLEX_STEP = 1e-100


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


def _horner(x, coefs, out):
    """sum coefs[k] x^(len - 1 - k) written into out, highest degree first."""
    np.multiply(x, coefs[0], out=out)
    for a in coefs[1:-1]:
        np.multiply(np.add(out, a, out=out), x, out=out)
    return np.add(out, coefs[-1], out=out)


def _cos_sinc(x, c=None, s=None):
    """cos(sqrt(x)) and sin(sqrt(x))/sqrt(x), entire, for real or complex x,
    written into c and s when given."""
    x = np.asarray(x, dtype=np.result_type(x, float))
    if c is None:
        c, s = np.empty_like(x), np.empty_like(x)
    if np.iscomplexobj(x):
        w = np.sqrt(x)
        small = np.abs(x) < _SMALL_X
        wsafe = np.where(small, 1.0, w)
        c[...] = np.where(small, 1.0 - x / 2.0 + x * x / 24.0, np.cos(wsafe))
        s[...] = np.where(small, 1.0 - x / 6.0 + x * x / 120.0, np.sin(wsafe) / wsafe)
        return c, s
    with np.errstate(over="ignore"):  # elements past the radius are redone
        _horner(x, _COS_COEFS, c)
        _horner(x, _SINC_COEFS, s)
    pos = x > _SERIES_RADIUS
    if pos.any():
        w = np.sqrt(x[pos])
        c[pos] = np.cos(w)
        s[pos] = np.divide(np.sin(w), w, out=w)
    neg = x < -_SERIES_RADIUS
    if neg.any():
        w = np.sqrt(np.negative(x[neg]))
        c[neg] = np.cosh(w)
        s[neg] = np.divide(np.sinh(w), w, out=w)
    return c, s


def _free_planes(E, length):
    """free_block as (2, 2, *shape) planes, from one _cos_sinc call."""
    E, length = np.asarray(E), np.asarray(length)
    x = E * (length * length)
    out = np.empty((2, 2) + x.shape, dtype=np.result_type(x, float))
    c, s = _cos_sinc(x, out[1, 1, ...], out[1, 0, ...])  # views, also at 0-d
    np.multiply(-E * length, s, out=out[0, 1, ...])
    out[0, 0] = c
    np.multiply(length, s, out=s)
    return out


def free_block(E, length):
    """Propagator of the zero potential over the given length, (...,2,2).

    Entire in E: for E > 0 it is the rotation-like block built from
    cos(w L) and sin(w L)/w with w = sqrt(E); negative and complex E
    follow by analytic continuation.  E and length broadcast together.
    The stack is a view of _free_planes' planes, the one gap exponential.

    Oracle for the gap exponential of _free_planes; checked by TestFreeBlock.
    """
    return np.moveaxis(_free_planes(E, length), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# nonzero pieces: sixth-order Gauss-Magnus steps
# ---------------------------------------------------------------------------

# the three Gauss nodes of a step of length h, in units of h
_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


def _step_coefs(h, v1, v2, v3):
    """(c, a0, aE, b0, bE) of the sixth-order Magnus exponents
    Omega = [[a, b], [c, -a]], a = a0 + aE E and b = b0 + bE E, of steps of
    length h whose potential samples at the Gauss nodes are v1, v2, v3.

    With A(s) = [[0, V(s) - E], [1, 0]] sampled at the nodes, alpha1 = h A2,
    alpha2 = (sqrt(15) h / 3)(A3 - A1) and alpha3 = (10 h / 3)(A3 - 2 A2 + A1),
    the exponent of Blanes, Casas & Ros (BIT 40, 2000) is
      Omega = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,
      C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60.
    alpha2 and alpha3 are multiples of [[0, 1], [0, 0]], with beta and delta
    below, so the commutators close on 2 x 2 entries: c does not depend on E,
    and a and b are affine in it.
    """
    beta = (math.sqrt(15.0) / 3.0) * h * (v3 - v1)
    delta = (10.0 / 3.0) * h * (v3 - 2.0 * v2 + v1)
    h2, bb = h * h, beta * beta
    c = h + (h2 * h * bb - 20.0 * h2 * delta) / 3600.0
    a0 = (20.0 * h * beta - h2 * beta * delta / 30.0
          - (4.0 / 3.0) * h2 * h * beta * v2) / 240.0
    aE = h2 * h * beta / 180.0
    # the coefficient of q2 = v2 - E in 120 (b - h q2 - delta / 12)
    w = h2 * h * bb / 30.0 + (2.0 / 3.0) * h2 * delta
    b0 = h * v2 + delta / 12.0 + (h * (delta * delta / 30.0 - bb) + v2 * w) / 120.0
    bE = -h - w / 120.0
    return c, a0, aE, b0, bE


def _magnus_steps(coefs, E):
    """Step propagators exp(Omega), Omega = [[a, b], [c, -a]] with
    a = a0 + aE E and b = b0 + bE E, as (2, 2, steps, K) planes; the
    coefficients (c, a0, aE, b0, bE) run along the steps, E along K.
    Omega^2 = (a^2 + b c) I, so exp(Omega) = C I + S Omega with the (C, S)
    of free_block: determinant one, entire in E."""
    c, a0, aE, b0, bE = np.asarray(coefs)[:, :, None]
    out = np.empty((2, 2, c.shape[0]) + E.shape, dtype=np.result_type(E, float))
    # a, b, x and C are worked out in the planes and S in one more array, so
    # a block allocates little else and the next block reuses its memory
    # (no page faults)
    a, b, x, C = out[0, 0], out[0, 1], out[1, 0], out[1, 1]
    np.add(np.multiply(aE, E, out=a), a0, out=a)
    np.add(np.multiply(bE, E, out=b), b0, out=b)
    S = a * a
    np.negative(np.add(S, np.multiply(b, c, out=x), out=x), out=x)
    _cos_sinc(x, C, S)
    np.multiply(S, c, out=x)
    np.multiply(S, b, out=b)
    np.multiply(S, a, out=S)
    np.add(C, S, out=a)
    np.subtract(C, S, out=C)
    return out


class _Piece:
    """Propagators across one nonzero piece, V(s) = fn(shift + timescale s)
    for s in [0, length], for any batch of energies.

    V is sampled once, at the three Gauss nodes of each of ``steps`` equal
    steps, and the steps' Magnus coefficients (_step_coefs) are kept; they
    do not depend on E.  ``steps`` is the first count in n0, 2 n0, 4 n0, ...
    (n0 = _MIN_STEPS_PER_UNIT per unit length) whose piece propagator
    differs from the one with twice the steps by at most _TOL, relative to
    max(1, its size), at every probe energy.  For a sixth-order method
    that difference estimates the error of the coarser propagator (to a
    factor 64 / 63), so the count grows with the timescale and with narrow
    features of V and is the same for every energy.
    """

    def __init__(self, fn, shift, timescale, length):
        self._fn = fn
        self._shift = shift
        self._timescale = timescale
        self.length = length
        n = max(1, math.ceil(_MIN_STEPS_PER_UNIT * length))
        h = length / n
        v = self._sample(h * np.arange(n), h)
        probes = np.concatenate([[v.min() - 1.0], v.max() + np.array(_PROBE_OFFSETS)])
        coarse = _step_coefs(h, *v)
        coarse_prop = sl2.plane_product(_magnus_steps(coarse, probes))
        while True:
            if 2 * n > _MAX_STEPS:
                raise IntegrationFailureError(
                    f"piece needs more than {_MAX_STEPS} Magnus steps to meet "
                    f"tolerance {_TOL!r}", interval=(0.0, length))
            fine = self._uniform(2 * n)
            fine_prop = sl2.plane_product(_magnus_steps(fine, probes))
            size = np.maximum(1.0, np.max(np.abs(fine_prop), axis=(0, 1)))
            err = np.max(np.abs(coarse_prop - fine_prop), axis=(0, 1)) / size
            if np.all(err <= _TOL):
                break
            n, coarse, coarse_prop = 2 * n, fine, fine_prop
        self.steps = n
        self._h = length / n
        self._coefs = np.array(coarse)

    def _sample(self, left, h):
        """V at the Gauss nodes of the Magnus steps [left, left + h], as a
        (3, steps) array; left and h broadcast."""
        left, h = np.broadcast_arrays(left, h)
        nodes = left + h * _NODES[:, None]
        v = self._fn(self._shift + self._timescale * nodes.ravel())
        if not np.all(np.isfinite(v)):
            raise IntegrationFailureError("potential is not finite on the piece",
                                          interval=(0.0, self.length))
        return v.reshape(nodes.shape)

    def _uniform(self, n):
        """Magnus coefficients of n equal steps across the piece."""
        h = self.length / n
        return _step_coefs(h, *self._sample(h * np.arange(n), h))

    def full(self, E):
        """(K, 2, 2) propagator across the whole piece."""
        return plane_stack(sl2.plane_product(_magnus_steps(self._coefs, E)))

    def prefix(self, E, s):
        """(K, len(s), 2, 2) stack of prefix_planes."""
        P = self.prefix_planes(E, s, _magnus_steps(self._coefs, E))
        return plane_stack(P.swapaxes(2, 3))

    def prefix_planes(self, E, s, steps):
        """(2, 2, len(s), K) propagators from the piece start to local times
        s in [0, length], given the piece's step planes at E: the scanned
        products of the whole steps below each time, then one shortened
        Magnus step, with its own three nodes, up to the time itself."""
        k = np.minimum(np.floor(s / self._h), self.steps).astype(int)
        left = k * self._h
        r = np.maximum(s - left, 0.0)
        short = _magnus_steps(_step_coefs(r, *self._sample(left, r)), E)
        whole = sl2.plane_scan(steps[:, :, :int(k.max())])
        return sl2.mul_planes(short, whole[:, :, k], np.empty_like(short))


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


def _chunked(E, size, fn):
    """Apply fn to blocks of at most size energies and stack its results, an
    array or a tuple of arrays, along the energies.  An empty batch is one
    empty block, and a single block's result is returned as fn gave it."""
    parts = [fn(E[i:i + size]) for i in range(0, max(E.shape[0], 1), size)]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p, axis=0) for p in zip(*parts))
    return np.concatenate(parts, axis=0)


def _distinct(a):
    """The sorted distinct values of a 1-d array, as np.unique gives them;
    np.unique imports numpy.ma, about 10 ms of a CLI process."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _times_period_powers(M, ks, A):
    """A[:, i] . M**ks[i] for a (K, len(ks), 2, 2) stack A, written into A.

    Each distinct power is computed once; M**-k inverts M**k.
    """
    for k in _distinct(ks):
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
    if self.kind == "continuum":  # tr2's formula off the monodromy planes
        planes = self._monodromy_planes
        out = _chunked(Earr, self._batch, lambda b: np.add(*planes(b).diagonal().T))
    else:
        out = sl2.tr2(self.monodromy(Earr))
    return float(out[0]) if scalar and not np.iscomplexobj(out) else (
        out[0] if scalar else out)


def _trace_derivative(self, E):
    """d(trace)/dE by complex step: both cocycles are entire in E, so
    Im tr(E + ih) / h, h = _COMPLEX_STEP, is the derivative to rounding."""
    Earr, scalar = _as_batch(E)
    tr = self.trace(Earr.astype(complex) + 1j * _COMPLEX_STEP)
    out = np.imag(tr) / _COMPLEX_STEP
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
        """Energies per block: at most _CHUNK, which bounds the planes and
        the stack of a block's prefix grid, and at most _BLOCK_STEPS
        energy-steps of the longest piece, so that its step planes (32 bytes
        per real energy-step) stay in a 2 MB L2 cache; of the budgets 2**14
        to 2**16 this was the fastest."""
        steps = max((p.steps for _, _, p in self._segments if p is not None),
                    default=1)
        return max(1, min(_CHUNK, _BLOCK_STEPS // steps))

    @cached_property
    def _blocks(self):
        """The distinct pieces and the distinct gap lengths (ascending)."""
        segs = self._segments
        return (tuple(dict.fromkeys(p for _, _, p in segs if p is not None)),
                _distinct(np.array([length for _, length, p in segs if p is None])))

    def _entry_matrices(self, E):
        """The _entries planes and the (2, 2, steps, K) Magnus step planes W
        of each distinct piece, which _in_period scans."""
        W = {p: _magnus_steps(p._coefs, E) for p in self._blocks[0]}
        return self._entries(E, {p: sl2.plane_product(w) for p, w in W.items()}), W

    def _entries(self, E, blocks):
        """A(0 -> segment start) for each segment, then the monodromy, as one
        (segments + 1, 2, 2, K) plane array, from the propagator planes of
        the distinct pieces; the gap lengths take one _free_planes call."""
        segs, L = self._segments, self._blocks[1]
        blocks.update(zip(L.tolist(), _free_planes(E, L[:, None]).transpose(2, 0, 1, 3)))
        out = np.empty((len(segs) + 1, 2, 2) + E.shape, np.result_type(E, float))
        out[0] = np.eye(2)[:, :, None]
        for i, (_, length, p) in enumerate(segs):
            sl2.mul_planes(blocks[length if p is None else p], out[i], out[i + 1])
        return out

    def _in_period(self, E, t):
        """(A(0 -> t) for times t in [0, period], the monodromy) of one energy
        block as C-contiguous stacks, off one _entry_matrices pass.  The grid
        is written through its plane view, one product per group of times: a
        stable argsort groups them by piece, and all gap times together."""
        entries, steps = self._entry_matrices(E)
        segs = self._segments
        starts, lengths = np.array([s[:2] for s in segs]).T
        idx = np.minimum(np.searchsorted(starts + lengths, t, side="right"),
                         len(segs) - 1)
        local = np.minimum(np.maximum(t - starts[idx], 0.0), lengths[idx])
        key = np.array([0 if p is None else id(p) for _, _, p in segs])[idx]
        order = np.argsort(key, kind="stable")
        out = np.empty((E.shape[0], t.shape[0], 2, 2), entries.dtype)
        for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            piece = segs[idx[rows[0]]][2] if rows.size else None
            blk = (_free_planes(E, local[rows, None]) if piece is None
                   else piece.prefix_planes(E, local[rows], steps[piece]))
            out.transpose(2, 3, 1, 0)[:, :, rows] = sl2.mul_planes(
                blk, entries[idx[rows]].transpose(1, 2, 0, 3), np.empty_like(blk))
        return out, plane_stack(entries[-1])

    prefix = _prefix

    def _grid_and_monodromy(self, E, t_grid):
        """(prefix_grid(E, t_grid), monodromy(E)) over a 1-d energy batch,
        both read off one _in_period pass per energy block."""
        t_grid = np.asarray(t_grid, dtype=float)
        T = self.period
        ks = np.floor(t_grid / T).astype(int)
        rems = t_grid - ks * T

        def run(block):
            grid, M = self._in_period(block, rems)
            return _times_period_powers(M, ks, grid), M

        return _chunked(E, self._batch, run)

    def prefix_grid(self, E, t_grid):
        """A(E, 0, t) for an ascending array of times; returns (K, Nt, 2, 2)."""
        Earr, scalar = _as_batch(E)
        out = self._grid_and_monodromy(Earr, t_grid)[0]
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
        return sl2.mul2(self.prefix(E, t1), sl2.inv2(self.prefix(E, t0)))

    def _monodromy_planes(self, E):
        """The monodromy of one energy block, (2, 2, K) planes.  Each piece's
        step planes are dropped after its product: kept to the block's end,
        they made the heap shrink and fault back in on every block."""
        return self._entries(E, {p: sl2.plane_product(_magnus_steps(p._coefs, E))
                                 for p in self._blocks[0]})[-1]

    def monodromy(self, E, t0=0.0):
        """A(E, t0, t0 + period)."""
        Earr, scalar = _as_batch(E)
        if t0 == 0.0:
            out = _chunked(Earr, self._batch,
                           lambda b: plane_stack(self._monodromy_planes(b)))
        else:
            rem = np.array([t0 - math.floor(t0 / self.period) * self.period])
            P, M = _chunked(Earr, self._batch, lambda b: self._in_period(b, rem))
            out = sl2.mul2(sl2.mul2(P[:, 0], M), sl2.inv2(P[:, 0]))
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
    """Stack of one-site transfer matrices, shape (K, n, 2, 2): the steps
    site_products applies, as one array.

    Oracle for site_products' bits; checked by test_site_products_keep_the_mul2_bits.
    """
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


def site_products(E, values):
    """Yield P_j = S_{j-1} ... S_0, j = 0..n, as (2, 2, *shape) planes, for
    the one-site steps S_j = [[E - values[j], -1], [1, 0]].

    E and each values[j] broadcast to one shape: (K,) energies, or (slices,
    K) with values of shape (n, slices, 1).  Each step applies mul2's
    per-element formulas, its constant entries included, so every product
    has the bits of mul2(step_matrices(E, values)[:, j], P_j).  The planes
    are fresh arrays; only two are alive at a time.
    """
    E = np.asarray(E)
    values = np.asarray(values, dtype=float)
    dt = complex if np.iscomplexobj(E) else float
    minus_one, one, zero = dt(-1.0), dt(1.0), dt(0.0)
    P = np.zeros((2, 2) + np.broadcast_shapes(E.shape, values.shape[1:]), dt)
    P[0, 0] = P[1, 1] = one
    yield P
    for v in values:
        Q = np.empty_like(P)
        np.multiply(E - v, P[0], out=Q[0])
        Q[0] += minus_one * P[1]
        np.multiply(one, P[0], out=Q[1])
        Q[1] += zero * P[1]
        P = Q
        yield P


def plane_stack(P):
    """(2, 2, *shape) planes as a C-contiguous (*shape, 2, 2) stack."""
    return np.ascontiguousarray(np.moveaxis(P, (0, 1), (-2, -1)))


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
        return plane_stack(np.stack(list(site_products(E, self.pot.values)),
                                    axis=2))

    prefix = _prefix

    def _grid_and_monodromy(self, E, sites):
        """(prefix_grid(E, sites), monodromy(E)) over a 1-d energy batch,
        both read off one prefix table."""
        sites = np.asarray(sites, dtype=int)
        table = self._prefix_table(E)
        ks = sites // self.sites
        rems = sites - ks * self.sites
        return (_times_period_powers(table[-1], ks, table.swapaxes(0, 1)[:, rems]),
                table[-1])

    def prefix_grid(self, E, sites):
        """A(E, 0, j) for an array of integers; returns (K, len, 2, 2)."""
        Earr, scalar = _as_batch(E)
        out = self._grid_and_monodromy(Earr, sites)[0]
        return out[0] if scalar else out

    def transfer(self, E, j0, j1):
        """Direct ordered product of step matrices from site j0 to j1."""
        Earr, scalar = _as_batch(E)
        j0, j1 = int(j0), int(j1)
        if j1 < j0:
            return sl2.inv2(self.transfer(E, j1, j0))
        for P in site_products(Earr, self.pot(np.arange(j0, j1))):
            pass
        A = plane_stack(P)
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


def _sign_changes(u):
    """Sign changes along axis 0, by sign bit (+0 counts as positive)."""
    neg = np.signbit(u)
    return np.count_nonzero(neg[1:] != neg[:-1], axis=0)


def _quarter_turn_steps(coefs, E):
    """Magnus step planes of the steps with coefficients coefs (_step_coefs),
    each cut into m equal sub-steps whose phase sqrt(x) / m, x = -(a^2 + b c),
    stays below a quarter turn at every energy: exp(Omega / m) ** m =
    exp(Omega), and such a step cannot carry the solution across two zeros.
    x is quadratic in E, so m is read off its largest value over E and the
    steps."""
    c, a0, aE, b0, bE = (np.reshape(x, (-1, 1)) for x in coefs)
    a, b = a0 + aE * E, b0 + bE * E
    phase2 = np.max(-(a * a + b * c), initial=0.0)
    m = max(1, math.ceil(math.sqrt(phase2) / (0.5 * math.pi)))
    return _magnus_steps([np.repeat(x / m, m) for x in coefs], E)


def _dirichlet_count(system, table):
    """rotation_count of a discrete system read off its prefix table."""
    u = table[:-1, :, 0, 0].copy()
    if system.sites > 1:
        # an eigenvalue at E is not below it: u(n - 1) = 0 is a change
        u[-1] = np.where(u[-1] == 0.0, -u[-2], u[-1])
    return system.sites - 1 - _sign_changes(u)


def rotation_count(system, E):
    """Sturm oscillation count over one period: the number of Dirichlet
    eigenvalues below each real energy of a 1-d batch.

    The Dirichlet solution starts from the state (1, 0): (u', u) for the
    continuum, (u(0), u(-1)) for the discrete kind.
      continuum  the zeros of u in (0, period), that is, how often its lifted
                 Pruefer angle atan2(u, u') passes a multiple of pi (it only
                 passes upwards).  u is read at the ends of every Magnus step
                 and of the free stretches, cut so that each turns by less
                 than a quarter turn; a sign change of u is then one zero.
      discrete   (n - 1) minus the sign changes of u(0), ..., u(n - 1), the
                 Sturm sequence of the Dirichlet matrix on sites 0 .. n - 2.
    By the oscillation theorem for Hill's equation (Magnus & Winkler,
    *Hill's Equation*, 1966) one Dirichlet eigenvalue lies in each closed
    gap, at a zero of the monodromy entry M[1, 0] = u(period) (u(n - 1)).
    So the count is k inside band k (counted from 0), and k - 1 or k inside
    the gap above band k - 1; it steps only at those zeros.
    """
    E = np.asarray(E, dtype=float)
    if system.kind == "discrete":
        return _dirichlet_count(system, system._prefix_table(E))

    def run(block):
        u = np.zeros((2, block.shape[0]))
        u[0] = 1.0
        zeros = 0
        scans = {}
        for _, length, piece in system._segments:
            key = length if piece is None else piece
            if key not in scans:
                steps = ((length, 0.0, 0.0, 0.0, -length) if piece is None
                         else piece._coefs)
                scans[key] = sl2.plane_scan(_quarter_turn_steps(steps, block))
            Q = scans[key]
            q = Q[1, 0] * u[0] + Q[1, 1] * u[1]
            zeros = zeros + _sign_changes(q)
            u = np.stack([Q[0, 0, -1] * u[0] + Q[0, 1, -1] * u[1], q[-1]])
            u /= np.max(np.abs(u), axis=0)
        return zeros

    return _chunked(E, system._batch, run)


def _minus_two_below(system, c):
    """1 where band c starts at trace -2, 0 where at +2: the trace at the
    lower edge of band k has sign (-1)^k (continuum) or (-1)^(n - k)
    (period n)."""
    parity = system.sites if system.kind == "discrete" else 0
    return (c + parity) % 2


def _edge_index(system, c, tr):
    """j, the number of bands below an energy in a gap, or below the nearer
    edge of the band it is in, from its count c and trace tr.

    The trace sign flips from band to band, so it tells which of j - 1 and
    j the count is in a gap, and which edge is nearer inside a band (where
    the count is k): a Dirichlet eigenvalue on an edge cannot shift j."""
    return c + (_minus_two_below(system, c) + (tr < 0.0)) % 2


def sturm_level(system, E, tr):
    """The level of each real energy of a 1-d batch with monodromy traces
    tr: 2k + 1 inside band k (|tr| <= 2, count k) and 2k in the gap above
    k bands, certified by rotation_count."""
    c = rotation_count(system, E)
    return np.where(np.abs(tr) <= 2.0, 2 * c + 1, 2 * _edge_index(system, c, tr))


# edges and Dirichlet eigenvalues are refined to the last few ulps; a gap
# between inside energies is first bisected to _GAP_WIDTH max(1, |E|)
_EDGE_TOL = dict(xtol=1e-14, rtol=8.9e-16)
_GAP_WIDTH = 1e-6
# degree of the Chebyshev interpolant of the trace behind the band scan
_SCAN_DEGREE = 16


def _lobatto_interpolant(f, t):
    """Values at t in [-1, 1] of the polynomial of degree d through the values
    f at the Chebyshev-Lobatto points cos(pi j / d), j = 0 .. d: Clenshaw's
    recurrence on its Chebyshev coefficients, in O(len(t)) memory."""
    d = f.shape[0] - 1
    j = np.arange(d + 1)
    g = f * (2.0 / d)
    g[[0, d]] *= 0.5
    c = np.cos(np.pi / d * np.outer(j, j)) @ g
    c[[0, d]] *= 0.5
    t2 = 2.0 * t
    b1 = b2 = np.zeros_like(t)
    for ck in c[:0:-1]:
        b1, b2 = ck + t2 * b1 - b2, b1
    return c[0] + t * b1 - b2


def _scan_traces(tr_of, E):
    """Traces over the ascending scan grid E, read off the degree
    _SCAN_DEGREE interpolant of tr_of where it decides |trace| <= 2 (see the
    module docstring), and the mask of the energies evaluated exactly."""
    d = _SCAN_DEGREE
    if E.shape[0] > 4 * (d + 1):
        mid, half = 0.5 * (E[-1] + E[0]), 0.5 * (E[-1] - E[0])
        f = tr_of(mid + half * np.cos(np.pi / d * np.arange(d + 1)))
        t = (E - mid) / half
        with np.errstate(all="ignore"):
            p = _lobatto_interpolant(f, t)
            margin = (2.0 * np.max(np.abs(p - _lobatto_interpolant(f[::2], t)))
                      + 8.0 * np.finfo(float).eps * np.max(np.abs(f)))
        undecided = ~(np.abs(np.abs(p) - 2.0) > margin)
        if np.isfinite(margin) and np.count_nonzero(undecided) <= d + 1:
            if undecided.any():
                p[undecided] = tr_of(E[undecided])
            return p, undecided
    return tr_of(E), np.ones(E.shape, dtype=bool)


def band_spectrum(system, e_min: float, e_max: float, *, grid: int = 4096,
                  tangency_tol: float = 1e-9, budget: int = 2_000_000) -> BandSet:
    """Closed bands of [e_min, e_max], certified by rotation_count.

    Bands are maximal intervals with |trace| <= 2, split where the trace
    touches +-2, so touching bands and closed gaps stay visible.  The scan
    of grid + 1 energies takes its |trace| <= 2 flags from a degree-16
    Chebyshev interpolant of the trace where they clear its error margin,
    and evaluates the trace exactly elsewhere, or everywhere where the
    interpolant does not resolve it (_scan_traces).  Levels (sturm_level)
    are read at the ends of the scan and of its runs of inside samples;
    where a level rises more than the samples show, a band or a gap hides,
    and such intervals are bisected in lockstep.  A gap between inside
    energies closer than _GAP_WIDTH is placed at its Dirichlet eigenvalue, a
    root of M[1, 0]: a micro-gap if |trace| > 2 + tangency_tol there, else a
    touching point.  A count that the trace cannot match raises
    ResolutionError, so ``grid`` only sets how much bisection is needed.
    Edges are roots of trace = +-2, each lockstep ``util.brentq`` lane
    running its solo iteration from exact trace values at both bracket ends.
    ``budget`` bounds the energies where the trace (interpolation nodes
    included), the count or M[1, 0] is evaluated.
    """
    if not e_max > e_min:
        raise ValidationError("need e_max > e_min")
    if grid < 1:
        raise ValidationError(f"band scan needs 'grid' >= 1, got {grid!r}")
    used = [0]

    def spend(Es):
        used[0] += Es.shape[0]
        if used[0] > budget:
            raise ResolutionError(f"band scan exceeded its budget of {budget} energies")
        return Es

    def tr_of(Es):
        return np.atleast_1d(system.trace(spend(np.atleast_1d(Es))))

    def check(bad, lo, hi):
        for k in np.flatnonzero(bad)[:1]:
            raise ResolutionError(
                "the oscillation count disagrees with the trace between "
                f"{float(lo[k])!r} and {float(hi[k])!r}")

    E = np.linspace(e_min, e_max, grid + 1)
    tr, exact = _scan_traces(tr_of, E)
    inside = np.abs(tr) <= 2.0
    runs = np.flatnonzero(np.diff(inside))
    ref = _distinct(np.r_[0, grid, runs + ~inside[runs]])
    L = np.full(E.shape, -1)
    L[ref] = sturm_level(system, spend(E[ref]), tr[ref])
    cut = np.zeros(E.shape, dtype=bool)  # touching points, trace set to +-2
    while True:
        inside = (np.abs(tr) <= 2.0) & ~cut
        seen = np.r_[0, np.cumsum(inside[1:] != inside[:-1])]
        known = np.flatnonzero(L >= 0)
        a, b = known[:-1], known[1:]
        excess = L[b] - L[a] - seen[b] + seen[a]
        check((excess < 0) | (excess % 2 == 1), E[a], E[b])
        a, b = a[excess > 0], b[excess > 0]
        if not a.size:
            break
        # read the middle sample's level, halve an interval between adjacent
        # energies, or place the one gap between close inside energies
        far = b - a > 1
        pick = (a + b)[far] // 2
        a, b = a[~far], b[~far]
        narrow = (inside[a] & inside[b] & (L[b] - L[a] == 2) & (
            E[b] - E[a] <= _GAP_WIDTH * np.maximum(1.0, np.abs(E[a]))))
        lo, hi = E[a[~narrow]], E[b[~narrow]]
        mid = 0.5 * (lo + hi)
        check((mid <= lo) | (mid >= hi), lo, hi)
        a, b = a[narrow], b[narrow]
        mu = util.brentq(lambda x, lanes: system.monodromy(spend(x))[:, 1, 0],
                         E[a], E[b], maxiter=200, **_EDGE_TOL)
        tr_mu = tr_of(mu) if mu.size else mu
        check(np.abs(tr_mu) < 2.0 - tangency_tol, E[a], E[b])
        touch = np.abs(tr_mu) <= 2.0 + tangency_tol
        tr_mid = tr_of(mid) if mid.size else mid
        new_L = sturm_level(system, spend(np.r_[E[pick], mid]),
                            np.r_[tr[pick], tr_mid])
        L[pick] = new_L[:pick.size]
        E = np.r_[E, mid, mu]
        tr = np.r_[tr, tr_mid, np.where(touch, np.copysign(2.0, tr_mu), tr_mu)]
        L = np.r_[L, new_L[pick.size:], L[a] + 1]
        cut = np.r_[cut, np.zeros(mid.shape, dtype=bool), touch]
        exact = np.r_[exact, np.ones(mid.size + mu.size, dtype=bool)]
        order = np.lexsort((L, E))
        E, tr, L, cut, exact = (E[order], tr[order], L[order], cut[order],
                                exact[order])

    # each run of inside energies is one band; its ends are roots of
    # trace = +-2 against their outside neighbours, or the scan ends (sign 0)
    step = np.diff(np.r_[0, inside.astype(np.int8), 0])
    ins = np.r_[np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1]
    outs = ins + np.repeat([-1, 1], ins.size // 2)
    solve = (outs >= 0) & (outs < E.shape[0])
    # the bracket ends' values go to the edge solve as numbers
    redo = _distinct(np.r_[ins[solve], outs[solve]])
    redo = redo[~exact[redo]]
    if redo.size:
        tr[redo] = tr_of(E[redo])
    ends, sign = E[ins], np.zeros(ins.size, dtype=int)
    sign[solve] = np.where(tr[outs[solve]] >= 0.0, 1, -1)
    lo, hi = np.sort([ins[solve], outs[solve]], axis=0)
    two = 2.0 * sign[solve]
    ends[solve] = util.brentq(lambda x, lanes: tr_of(x) - two[lanes], E[lo],
                              E[hi], maxiter=200, fa=tr[lo] - two,
                              fb=tr[hi] - two, **_EDGE_TOL)
    half, ends, sign = ins.size // 2, ends.tolist(), sign.tolist()
    bands = [Band(*band) for band in zip(ends[:half], ends[half:], sign[:half],
                                         sign[half:]) if band[1] > band[0]]
    return BandSet(tuple(bands), system.kind, system.period, e_min, e_max)


def discrete_band_spectrum(system: DiscreteCocycle, **kw) -> BandSet:
    """Full spectrum of a discrete period-n operator: its n bands, which
    band_spectrum's oscillation count certifies over scan_range."""
    return band_spectrum(system, *system.scan_range(), **kw)


# ---------------------------------------------------------------------------
# rotation angle, integrated density of states, Lyapunov exponent
# ---------------------------------------------------------------------------


def section_points(system, E, times, reduce, margin: float = 0.0):
    """The invariant section z(E, t) = A(E, 0, t) . u(E) over a 1-d energy
    batch, reduced block by block.

    u(E) is the upper-half-plane fixed point of the monodromy and A(E, 0, t)
    the prefix transfer to each time (continuum) or site (discrete) t, so
    z(E, t) is the fixed point of the monodromy based at t.  Both are read
    off one integration of the period per block of at most
    _SECTION_ELEMENTS // len(times) energies.  reduce maps a block's
    complex (K, len(times)) section, nan where |trace| >= 2 - margin, to
    an array or a tuple of arrays over its K energies; they are stacked.
    """
    def block(Eb):
        pref, M = system._grid_and_monodromy(Eb, times)
        u = np.where(np.abs(sl2.tr2(M)) < 2.0 - margin, sl2.fixed_points2(M), np.nan)
        return reduce(sl2.moebius2(pref, np.broadcast_to(u[:, None], pref.shape[:2])))

    size = max(1, _SECTION_ELEMENTS // len(times))
    with np.errstate(invalid="ignore", divide="ignore"):
        return _chunked(np.asarray(E), size, block)


def _period_times(system, samples):
    """The section's period grid: samples equally spaced times in
    [0, period) (continuum), or the n sites (discrete)."""
    if system.kind == "continuum":
        return np.linspace(0.0, system.period, samples, endpoint=False)
    return np.arange(system.sites)


def ids(system, E, bandset=None):
    """Integrated density of states per unit length (continuum) or site.

    (c + s) / period inside band c (c = rotation_count), with s in [0, 1]
    from the monodromy rotation angle, oriented by the trace sign at the
    band's lower edge; j / period (_edge_index) in gaps and within
    sl2.ELLIPTIC_MARGIN of |trace| = 2, where the angle is not resolved.
    Works on scalars and arrays.  ``bandset`` is accepted and not read.
    """
    Earr, scalar = _as_batch(E)
    Earr = Earr.astype(float)
    if system.kind == "discrete":
        # the count and the monodromy share one integration of the period
        table = system._prefix_table(Earr)
        M, c = table[-1], _dirichlet_count(system, table)
    else:
        M, c = system.monodromy(Earr), rotation_count(system, Earr)
    tr = sl2.tr2(M)
    out = _edge_index(system, c, tr) / system.period
    inner = np.flatnonzero(np.abs(tr) < 2.0 - sl2.ELLIPTIC_MARGIN)
    if inner.size:
        k = c[inner]
        theta = sl2.rotation_angles2(M[inner])
        rising = _minus_two_below(system, k) == 0
        if system.kind == "continuum":
            s = np.where(rising, 2.0 * theta, 2.0 * theta - 1.0)
        else:
            s = np.where(rising, 2.0 * (1.0 - theta), 1.0 - 2.0 * theta)
        out[inner] = (k + np.clip(s, 0.0, 1.0)) / system.period
    return float(out[0]) if scalar else out


def density(system, E, *, t_samples: int = 512):
    """Density of states dN/dE at energies strictly inside bands.

    dN/dE = (1 / 2 pi) mean w(z) over the invariant section z, with
    w = 1 / Im z over t_samples times (continuum) or w = |z|^2 / Im z over
    the n sites (discrete); see fixed_point_density.  Raises
    NotEllipticError if an energy is not inside a band.
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
    def mean_weight(z):
        weight = 1.0 / z.imag if system.kind == "continuum" else (
            (z.real * z.real + z.imag * z.imag) / z.imag)
        return np.mean(weight, axis=1) / (2.0 * np.pi)

    return section_points(system, E, _period_times(system, t_samples),
                          mean_weight)


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


def growth_values(system, E, t0: float = 0.0, samples: int = 2048):
    """The GrowthReport fields over a 1-d energy batch, as arrays
    (value, sup_dist, base_dist, arg_sup); value is nan at energies with
    |trace| >= 2 - sl2.ELLIPTIC_MARGIN.  Each section block is reduced to
    its sup, argmax and base distance."""
    # t0 need not be on the grid: it rides along as one more time
    times = np.append(_period_times(system, samples), t0)

    def sup_and_base(z):
        dists = sl2.hyp_dist2(z, 1j)
        k = np.argmax(dists[:, :-1], axis=1)
        # a copy of the base column: a view would keep the block alive
        return dists[np.arange(k.shape[0]), k], dists[:, -1].copy(), times[k]

    sup, base, arg = section_points(system, np.asarray(E, dtype=float), times,
                                    sup_and_base, margin=sl2.ELLIPTIC_MARGIN)
    # math.exp, not np.exp: the two differ in the last bit on some energies
    value = np.array([math.exp((a - b) / 2.0) for a, b in zip(sup, base)])
    return value, sup, base, arg


def growth_value(system, E: float, t0: float = 0.0, samples: int = 2048) -> GrowthReport:
    """Smallest sup-norm growth over all unit initial data, elliptic case.

    Equals sup_t exp((d(u(t), i) - d(u(t0), i)) / 2) where u(t) is the
    invariant-section point and d is the hyperbolic distance: starting
    from the most contracted direction at t0, recurrent rotation phases
    push the orbit up to the worst frame discrepancy.  The one-energy view
    of growth_values.
    """
    fields = growth_values(system, np.array([float(E)]), t0, samples)
    if np.isnan(fields[0][0]):
        raise NotEllipticError(f"energy {E!r} is not elliptic")
    return GrowthReport(*(float(f[0]) for f in fields))


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

    Oracle for the Parseval sum; checked by test_parseval_matches_bloch_pair_sum.
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


def _band_halves(lo: float, hi: float):
    mid = 0.5 * (lo + hi)
    return (lo, mid, +1), (hi, mid, -1)


def band_quadrature(lo: float, hi: float, order: int):
    """Gauss-Legendre nodes and weights on [lo, hi] for a band density.

    On each half the substitution E = edge +- x^2 regularizes the
    inverse-sqrt blowup of a density at a band edge; at a regular end
    (a cap inside a band) the integrand in x stays smooth, so the same rule
    serves a band cut short.  Returns (E_nodes, dE_weights), 2 * order each.
    """
    Es, Ws = [], []
    for edge, mid, s in _band_halves(lo, hi):
        xs, ws = gauss_nodes(0.0, math.sqrt(abs(mid - edge)), order)
        Es.append(edge + s * xs * xs)
        Ws.append(ws * 2.0 * xs)
    return np.concatenate(Es), np.concatenate(Ws)


def spectral_parseval(system: DiscreteCocycle, bandset: BandSet, n: int,
                      order: int = 48) -> float:
    """(1/2pi) integral over all bands of |u(n)|^2 + |u(n-1)|^2 dE.

    For the Bloch pair normalized to unit Wronskian (bloch_pair) this is
    the diagonal completeness integral and should equal 1 at every site n.
    With z_n = u(n) / u(n-1), the section at site n (section_points), the
    integrand is (|z_n|^2 + 1) / (2 Im z_n); it is evaluated on the
    band_quadrature nodes of all bands at once.
    """
    nodes = [band_quadrature(band.lo, band.hi, order)
             for band in bandset.bands]
    if not nodes:
        return 0.0
    Es, Ws = (np.concatenate(v) for v in zip(*nodes))
    z = section_points(system, Es, [n], lambda zb: zb[:, 0],
                       margin=sl2.ELLIPTIC_MARGIN)
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
        for edge, mid, s in _band_halves(band.lo, band.hi):
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
