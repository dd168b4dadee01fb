"""Reference computations that share no code with ``cocycle_lab``.

* ``magnus_monodromy``: fourth-order two-node Gauss-Magnus integration of
  dA/dt = [[0, V(t) - E], [1, 0]] A, for energy batches.  Zero stretches are
  crossed in one exact step, because the generator is constant there.
* ``jacobi_band_edges``: band edges of a period-n discrete Schrodinger
  operator as the eigenvalues of its periodic and antiperiodic Jacobi
  matrices (Floquet multipliers +1 and -1).
* ``discrete_density``: dN/dE = |D'(E)| / (n pi sqrt(4 - D(E)^2)) from the
  discriminant D, a plain product of one-site matrices differentiated by
  complex step.

The potentials are rebuilt here from the benchmark's own parameters (see
``bump_values`` and ``padded_segments``), not read back from the program.
"""

from __future__ import annotations

import math

import numpy as np

_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0


def _cos_sinc(x):
    """cos(sqrt(x)) and sin(sqrt(x))/sqrt(x) for real x of any sign."""
    x = np.asarray(x, dtype=float)
    c = np.empty_like(x)
    s = np.empty_like(x)
    small = np.abs(x) < 1e-8
    pos = (x > 0) & ~small
    neg = (x < 0) & ~small
    w = np.sqrt(x[pos])
    c[pos], s[pos] = np.cos(w), np.sin(w) / w
    w = np.sqrt(-x[neg])
    c[neg], s[neg] = np.cosh(w), np.sinh(w) / w
    xs = x[small]
    c[small], s[small] = 1.0 - xs / 2.0 + xs * xs / 24.0, 1.0 - xs / 6.0 + xs * xs / 120.0
    return c, s


def _exp_traceless(a, b, c):
    """exp([[a, b], [c, -a]]) for broadcast arrays, as (..., 2, 2)."""
    c_, s_ = _cos_sinc(-(a * a + b * c))
    out = np.empty(np.broadcast(a, b, c).shape + (2, 2))
    out[..., 0, 0] = c_ + s_ * a
    out[..., 0, 1] = s_ * b
    out[..., 1, 0] = s_ * c
    out[..., 1, 1] = c_ - s_ * a
    return out


def _matmul(A, B):
    return np.einsum("...ij,...jk->...ik", A, B)


def free_step(E, length):
    """Exact propagator of the zero potential over ``length``, (K, 2, 2)."""
    E = np.asarray(E, dtype=float)
    return _exp_traceless(np.zeros_like(E), -E * length, np.full_like(E, length))


def magnus_piece(profile, length, E, h):
    """Propagator across one nonzero stretch of length ``length``.

    ``profile(s)`` gives V at local time s in [0, length]; the step count is
    ceil(length / h).  Returns (K, 2, 2).
    """
    E = np.asarray(E, dtype=float)
    steps = max(1, math.ceil(length / h - 1e-12))
    hh = length / steps
    left = hh * np.arange(steps)
    v1 = profile(left + hh * (0.5 - _GAUSS_OFFSET))
    v2 = profile(left + hh * (0.5 + _GAUSS_OFFSET))
    a = _COMMUTATOR * hh * hh * (v2 - v1)
    b = hh * (0.5 * (v1 + v2)[None, :] - E[:, None])
    step = _exp_traceless(a[None, :], b, np.full(b.shape, hh))
    out = np.broadcast_to(np.eye(2), (E.shape[0], 2, 2)).copy()
    for k in range(steps):
        out = _matmul(step[:, k], out)
    return out


def magnus_monodromy(segments, E, h=1.0 / 256.0):
    """Monodromy of a potential given as (length, profile-or-None) segments.

    A segment with profile None is a zero stretch.  Identical segment
    objects are integrated once.
    """
    E = np.asarray(E, dtype=float)
    memo = {}
    out = np.broadcast_to(np.eye(2), (E.shape[0], 2, 2)).copy()
    for length, profile in segments:
        key = (length, id(profile))
        if key not in memo:
            memo[key] = (free_step(E, length) if profile is None
                         else magnus_piece(profile, length, E, h))
        out = _matmul(memo[key], out)
    return out


def magnus_trace(segments, E, h=1.0 / 256.0):
    M = magnus_monodromy(segments, E, h)
    return M[:, 0, 0] + M[:, 1, 1]


# ---------------------------------------------------------------------------
# the benchmark's continuum potentials, rebuilt from their parameters
# ---------------------------------------------------------------------------


def bump_values(height, support):
    """V(s) = height exp(1 - 1/(1 - r^2)), r = (s - support/2)/(support/2)."""
    half = support / 2.0

    def profile(s):
        r = (np.asarray(s, dtype=float) - half) / half
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        ri = r[inside]
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - ri * ri))
        return out

    return profile


def bump_segments(height, period, zero_nbhd):
    """One bump on [0, period - zero_nbhd] followed by a zero stretch."""
    support = period - zero_nbhd
    return [(support, bump_values(height, support)), (zero_nbhd, None)]


def padded_segments(base, delta, N, n):
    """2n blocks of N copies of ``base``; block j is followed by a zero
    stretch of length delta sin^(2N)(pi j / 2n) when that length is positive."""
    out = []
    for j in range(2 * n):
        out.extend(list(base) * N)
        pad = delta * math.sin(math.pi * j / (2.0 * n)) ** (2 * N)
        if pad > 0.0:
            out.append((pad, None))
    return out


# ---------------------------------------------------------------------------
# discrete band edges
# ---------------------------------------------------------------------------


def jacobi_band_edges(values):
    """Sorted (lo, hi) band edges of the period-n operator
    (H u)(j) = u(j+1) + u(j-1) + v(j) u(j).

    The periodic (u(j+n) = u(j)) and antiperiodic (u(j+n) = -u(j))
    eigenvalues together are the 2n band edges; in ascending order they
    pair up as consecutive (lo, hi) bands.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    eig = []
    for sign in (1.0, -1.0):
        H = np.diag(v)
        if n == 1:
            H[0, 0] += 2.0 * sign
        else:
            idx = np.arange(n - 1)
            H[idx, idx + 1] = 1.0
            H[idx + 1, idx] = 1.0
            H[0, n - 1] += sign
            H[n - 1, 0] += sign
        eig.append(np.linalg.eigvalsh(H))
    edges = np.sort(np.concatenate(eig))
    return edges.reshape(n, 2)


def discrete_discriminant(values, E):
    """Trace of the one-period product of [[E - v_j, -1], [1, 0]]; E may be
    complex."""
    E = np.atleast_1d(np.asarray(E))
    a = np.ones_like(E)  # first column of the running product
    b = np.zeros_like(E)
    c = np.zeros_like(E)  # second column
    d = np.ones_like(E)
    for v in np.asarray(values, dtype=float):
        a, b, c, d = (E - v) * a - b, a, (E - v) * c - d, c
    return a + d


def discrete_density(values, E):
    """Density of states per site at energies strictly inside bands."""
    E = np.asarray(E, dtype=float)
    h = 1e-30
    disc = discrete_discriminant(values, E)
    slope = discrete_discriminant(values, E + 1j * h).imag / h
    n = len(values)
    return np.abs(slope) / (n * math.pi * np.sqrt(4.0 - disc * disc))
