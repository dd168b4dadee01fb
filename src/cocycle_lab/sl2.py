"""SL(2,R) matrices acting on the upper half plane.

One stacked core: the ``*2`` kernels operate on numpy stacks of shape
(..., 2, 2), and products also on (2, 2, ...) component planes
(mul_planes, and the long ordered plane_product and plane_scan).  They
check nothing; a non-elliptic matrix gets a nan fixed point.
invariant_point is the one checked entry, for a single matrix whose fixed
point must exist.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NotEllipticError

# Operations that need |tr A| < 2 reject inputs closer to the boundary
# than this margin.
ELLIPTIC_MARGIN = 1e-12

_DET_TOL = 1e-9
# Dekker's splitting constant 2^27 + 1: splits a double into two halves
# whose products are exact
_SPLIT = 134217729.0
# norms2 switches to its cancellation-free form where |A|_F^2 - 2 is below this
_NEAR_ROTATION = 1e-3
# _mul_planes forms all four entries at once on planes of at most this many
# elements, row by row on larger ones
_WHOLE_PLANES = 2048


def invariant_point(A) -> complex:
    """Upper-half-plane fixed point of one elliptic 2x2 array.

    Raises DomainError on a non-finite entry or a determinant off 1 by
    more than _DET_TOL (nothing is renormalized), and NotEllipticError
    within ELLIPTIC_MARGIN of |trace| = 2 or where c = 0.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise DomainError(f"non-finite entry in {A.tolist()!r}")
    det, tr = float(det2(A)), float(tr2(A))
    if abs(det - 1.0) > _DET_TOL:
        raise DomainError(f"determinant {det!r} is not 1 within {_DET_TOL!r}")
    if abs(tr) >= 2.0 - ELLIPTIC_MARGIN:
        raise NotEllipticError(f"|trace| = {abs(tr)!r} is not inside (0, 2)")
    # c = 0 with |tr| < 2 needs a determinant below 1, inside its tolerance
    if A[1, 0] == 0.0:
        raise NotEllipticError("degenerate fixed-point equation (c = 0)")
    return complex(fixed_points2(A))


# ---------------------------------------------------------------------------
# vectorized helpers over stacks of shape (..., 2, 2)
# ---------------------------------------------------------------------------


def mul2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over stacks of 2x2 matrices."""
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=np.result_type(A, B))
    out[..., 0, 0] = A[..., 0, 0] * B[..., 0, 0] + A[..., 0, 1] * B[..., 1, 0]
    out[..., 0, 1] = A[..., 0, 0] * B[..., 0, 1] + A[..., 0, 1] * B[..., 1, 1]
    out[..., 1, 0] = A[..., 1, 0] * B[..., 0, 0] + A[..., 1, 1] * B[..., 1, 0]
    out[..., 1, 1] = A[..., 1, 0] * B[..., 0, 1] + A[..., 1, 1] * B[..., 1, 1]
    return out


def _mul_planes(A, B, out):
    """out = A . B over (2, 2, ...) planes by mul2's formulas; no overlap.
    out[i, j] = A[i, 0] B[0, j] + A[i, 1] B[1, j], one broadcast product per
    term.  Small planes, where the ufunc calls cost more than the arithmetic,
    take three calls for all four entries; larger ones take six, row by row,
    so the temporary is half as large (a whole-size one made each 256-energy
    block of a trace return its heap and fault it back in)."""
    if out[0, 0].size <= _WHOLE_PLANES:
        np.multiply(A[:, 0, None], B[0], out=out)
        out += A[:, 1, None] * B[1]
        return out
    for i in range(2):
        np.multiply(A[i, 0, None], B[0], out=out[i])
        out[i] += A[i, 1, None] * B[1]
    return out


def mul_planes(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = A . B over (2, 2, ...) component planes, which broadcast; out
    must not overlap A or B.  It applies mul2's formulas in mul2's order,
    so each product has mul2's bits.  plane_product and plane_scan call
    _mul_planes itself, so a traced run counts their calls, not rounds."""
    return _mul_planes(A, B, out)


def plane_product(P: np.ndarray) -> np.ndarray:
    """Ordered product P[:, :, n-1] ... P[:, :, 0] of (2, 2, n, ...) planes.

    Each of ceil(log2 n) rounds multiplies the neighbours (2j+1, 2j) and
    carries an odd last factor.  Rounding depends on the association, so
    this order is fixed: it keeps every continuum output byte-identical.
    """
    while P.shape[2] > 1:
        n, half = P.shape[2], P.shape[2] // 2
        out = np.empty(P.shape[:2] + (n - half,) + P.shape[3:], P.dtype)
        _mul_planes(P[:, :, 1::2], P[:, :, 0:n - 1:2], out[:, :, :half])
        if n % 2:
            out[:, :, half] = P[:, :, n - 1]
        P = out
    return P[:, :, 0]


def plane_scan(S: np.ndarray) -> np.ndarray:
    """Prefix products Q[:, :, k] = S[:, :, k-1] ... S[:, :, 0], k = 0..n,
    of (2, 2, n, ...) planes, by a Hillis-Steele scan: the round with shift
    d = 1, 2, 4, ... sets Q[k] = Q[k] . Q[k-d] for all k > d at once.  The
    association order is fixed for byte identity, as in plane_product."""
    n = S.shape[2]
    Q = np.empty(S.shape[:2] + (n + 1,) + S.shape[3:], S.dtype)
    Q[:, :, 0] = np.eye(2).reshape((2, 2) + (1,) * (S.ndim - 3))
    Q[:, :, 1:] = S
    d = 1
    while d < n:
        Q[:, :, d + 1:] = _mul_planes(Q[:, :, d + 1:], Q[:, :, 1:n + 1 - d],
                                      np.empty_like(Q[:, :, d + 1:]))
        d *= 2
    return Q


def inv2(A: np.ndarray) -> np.ndarray:
    """Inverse assuming determinant one (adjugate)."""
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1]
    out[..., 0, 1] = -A[..., 0, 1]
    out[..., 1, 0] = -A[..., 1, 0]
    out[..., 1, 1] = A[..., 0, 0]
    return out


def det2(A: np.ndarray) -> np.ndarray:
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


def tr2(A: np.ndarray) -> np.ndarray:
    return A[..., 0, 0] + A[..., 1, 1]


def renorm2(A: np.ndarray) -> np.ndarray:
    """Scale each matrix in the stack back to determinant one."""
    return A / np.sqrt(np.abs(det2(A)))[..., None, None]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _dd_matmul(A, B):
    """Product of stacks of n x n matrices held as double-double pairs.

    A and B are (hi, lo) pairs of real arrays of shape (..., n, n); each
    entry sum is accumulated with error-free products and sums (Dekker,
    Knuth), so the result carries about 32 digits.  Where an intermediate
    overflows the entry falls back to the plain double product.
    """
    (ah, al), (bh, bl) = A, B
    sh = sl = None
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(ah.shape[-1]):
            x, y = ah[..., :, m, None], bh[..., None, m, :]
            p = x * y
            (xh, xl), (yh, yl) = _split(x), _split(y)
            e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
            e = e + (x * bl[..., None, m, :] + al[..., :, m, None] * y)
            if sh is None:
                sh, sl = p, e
            else:
                s = sh + p
                v = s - sh
                sl = sl + e + ((sh - (s - v)) + (p - v))
                sh = s
        hi = sh + sl
        lo = sl - (hi - sh)
        bad = ~np.isfinite(lo)
        if bad.any():
            hi = np.where(bad, ah @ bh, hi)
            lo = np.where(bad, 0.0, lo)
    return hi, lo


def power2(A: np.ndarray, k: int) -> np.ndarray:
    """Elementwise A**k over a stack, by binary powering in double-double.

    The result is A**k itself rounded to double, with no rescaling of the
    determinant.  Plain double products cancel where the power is small
    against |A| (an elliptic A with a far fixed point): for |A| ~ 180 and
    k <= 40 they were up to 5e-8 off the exact power, while the
    double-double result stays within rounding of it.  Complex stacks are
    powered through the real 4 x 4 form [[X, -Y], [Y, X]] of X + iY.
    """
    if k < 0:
        return power2(inv2(A), -k)
    if np.iscomplexobj(A):
        real = np.block([[A.real, -A.imag], [A.imag, A.real]])
        out = power2(real, k)
        return out[..., :2, :2] + 1j * out[..., 2:, :2]
    A = np.array(A, dtype=float)
    if k == 0:
        return np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    base, out = (A, np.zeros_like(A)), None
    while k:
        if k & 1:
            out = base if out is None else _dd_matmul(out, base)
        k >>= 1
        if k:
            base = _dd_matmul(base, base)
    return out[0]


def rotation2(theta: np.ndarray) -> np.ndarray:
    """Stack of rotations from an array of angles in turns."""
    ang = 2.0 * np.pi * np.asarray(theta, dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty(ang.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def fixed_points2(A: np.ndarray) -> np.ndarray:
    """Complex array of upper fixed points; nan where not elliptic."""
    tr = tr2(A)
    c = A[..., 1, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        # factored form avoids squaring-induced cancellation near |tr| = 2
        disc = (2.0 - tr) * (2.0 + tr)
        ok = (disc > 0.0) & (c != 0.0)
        re = np.where(ok, (A[..., 0, 0] - A[..., 1, 1]) / (2.0 * c), np.nan)
        im = np.where(ok, np.sqrt(np.where(ok, disc, 1.0)) / (2.0 * np.abs(c)), np.nan)
    return re + 1j * im


def rotation_angles2(A: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Rotation numbers in turns over a stack of elliptic matrices."""
    if u is None:
        u = fixed_points2(A)
    x, y = u.real, u.imag
    cos_part = A[..., 0, 0] - x * A[..., 1, 0]
    sin_part = y * A[..., 1, 0]
    ang = np.arctan2(sin_part, cos_part) / (2.0 * np.pi)
    return np.mod(ang, 1.0)


def frames2(u: np.ndarray) -> np.ndarray:
    """Upper-triangular frames sending each point of u (complex) to i."""
    s = 1.0 / np.sqrt(u.imag)
    out = np.zeros(u.shape + (2, 2))
    out[..., 0, 0] = s
    out[..., 0, 1] = -u.real * s
    out[..., 1, 1] = u.imag * s
    return out


def moebius2(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Moebius action over stacks; z complex, result complex."""
    den = A[..., 1, 0] * z + A[..., 1, 1]
    d2 = den.real * den.real + den.imag * den.imag
    num = A[..., 0, 0] * z + A[..., 0, 1]
    w = num * den.conjugate() / d2
    # imaginary part via the exact isometry identity, immune to cancellation
    return w.real + 1j * (z.imag * det2(A) / d2)


def hyp_dist2(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    q = np.abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag))
    return 2.0 * np.arcsinh(q)


def norms2(A: np.ndarray) -> np.ndarray:
    """Largest singular values over a stack of determinant-one matrices.

    With s = |A|_F^2 the value is sqrt((s + sqrt(s^2 - 4)) / 2).  Near a
    rotation s^2 - 4 cancels to rounding noise, so there s - 2 is taken as
    q = (a - d)^2 + (b + c)^2, its cancellation-free form for determinant
    one.  Away from rotations the direct form is accurate and is kept, so
    the reports built on it keep their bytes.
    """
    s = np.maximum(np.einsum("...ij,...ij->...", A, A), 2.0)
    q = (A[..., 0, 0] - A[..., 1, 1]) ** 2 + (A[..., 0, 1] + A[..., 1, 0]) ** 2
    direct = np.sqrt(0.5 * (s + np.sqrt(np.maximum(s * s - 4.0, 0.0))))
    near_rotation = np.sqrt(1.0 + 0.5 * (q + np.sqrt(q * (q + 4.0))))
    return np.where(q < _NEAR_ROTATION, near_rotation, direct)
