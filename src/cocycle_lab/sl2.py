"""SL(2,R) matrices acting on the upper half plane.

The stacked kernels (the ``*2`` functions) operate on numpy stacks of
shape (..., 2, 2) and are what the energy-grid pipelines call; long ordered
products take (2, 2, n, ...) component planes (plane_product, plane_scan).
The scalar types (Mat2, HPoint, Turns) and functions are thin wrappers
that validate their input and compute through those kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotEllipticError, NumericOverflowError

# Operations that need |tr A| < 2 reject inputs closer to the boundary
# than this margin.
ELLIPTIC_MARGIN = 1e-12

_DET_TOL = 1e-9
# Dekker's splitting constant 2^27 + 1: splits a double into two halves
# whose products are exact
_SPLIT = 134217729.0
# norms2 switches to its cancellation-free form where |A|_F^2 - 2 is below this
_NEAR_ROTATION = 1e-3


def _require_finite(*vals):
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"non-finite entry {v!r}")


@dataclass(frozen=True)
class Turns:
    """Angle measured in full turns, canonicalized to [0, 1)."""

    value: float

    def __post_init__(self):
        _require_finite(self.value)
        object.__setattr__(self, "value", self.value % 1.0)

    @property
    def radians(self) -> float:
        return 2.0 * math.pi * self.value

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class HPoint:
    """Point of the upper half plane."""

    re: float
    im: float

    def __post_init__(self):
        _require_finite(self.re, self.im)
        if self.im <= 0.0:
            raise DomainError(f"HPoint needs im > 0, got {self.im!r}")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix of determinant one, row major."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _require_finite(self.a, self.b, self.c, self.d)
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _DET_TOL:
            raise DomainError(f"determinant {det!r} is not 1 within {_DET_TOL!r}")

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_array(cls, m) -> "Mat2":
        m = np.asarray(m, dtype=float)
        return cls(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))

    def to_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def norm(self) -> float:
        """Largest singular value; for det 1 the smallest is its inverse."""
        return float(norms2(self.to_array()))


def rotation(theta) -> Mat2:
    """Rotation by ``theta`` turns: conjugacy model for elliptic matrices."""
    t = float(theta) if not isinstance(theta, Turns) else theta.value
    return Mat2.from_array(rotation2(t))


def energy_diag(E: float) -> Mat2:
    """diag(E**(1/4), E**(-1/4)); conjugates rotations to free propagators."""
    if E <= 0.0:
        raise DomainError(f"energy_diag needs E > 0, got {E!r}")
    q = E ** 0.25
    return Mat2(q, 0.0, 0.0, 1.0 / q)


def moebius(A: Mat2, z) -> HPoint:
    """Action of A on the upper half plane."""
    zz = z.z if isinstance(z, HPoint) else complex(z)
    if zz.imag <= 0.0:
        raise DomainError("moebius argument must lie in the upper half plane")
    den = A.c * zz + A.d
    if den.real * den.real + den.imag * den.imag < 1e-300:
        raise NumericOverflowError("moebius image out of range (|cz+d| underflow)")
    w = complex(moebius2(A.to_array(), zz))
    if not (math.isfinite(w.real) and math.isfinite(w.imag)) or w.imag <= 0.0:
        raise NumericOverflowError("moebius image out of range")
    return HPoint(w.real, w.imag)


def _require_elliptic(A: Mat2):
    if abs(A.trace) >= 2.0 - ELLIPTIC_MARGIN:
        raise NotEllipticError(f"|trace| = {abs(A.trace)!r} is not inside (0, 2)")


def fixed_point(A: Mat2) -> HPoint:
    """Upper-half-plane fixed point of an elliptic A.

    Root of c z^2 + (d - a) z - b = 0 with positive imaginary part.
    """
    _require_elliptic(A)
    # c = 0 with |tr| < 2 needs a determinant below 1, inside its tolerance
    if A.c == 0.0:
        raise NotEllipticError("degenerate fixed-point equation (c = 0)")
    u = complex(fixed_points2(A.to_array()))
    return HPoint(u.real, u.imag)


def rotation_angle(A: Mat2) -> Turns:
    """Rotation number of an elliptic A in (0, 1/2) u (1/2, 1).

    Conjugating by the upper-triangular frame that moves the fixed point
    to i turns A into an exact rotation; the angle is read off the
    oriented first column of that rotation.
    """
    u = fixed_point(A)
    return Turns(float(rotation_angles2(A.to_array(), u.z)))


def conjugator(A: Mat2) -> Mat2:
    """Upper-triangular frame B with B . u(A) = i and B A B^-1 a rotation."""
    return frame_for_point(fixed_point(A))


def frame_for_point(u: HPoint) -> Mat2:
    """The upper-triangular frame sending the point u to i."""
    return Mat2.from_array(frames2(np.complex128(u.z)))


def hyp_dist(z, w) -> float:
    """Hyperbolic distance on the upper half plane.

    Uses 2*asinh(|z-w| / (2*sqrt(Im z Im w))), which is exact and keeps
    full precision for nearby points where acosh(1 + eps) would not.
    """
    zz = z.z if isinstance(z, HPoint) else complex(z)
    ww = w.z if isinstance(w, HPoint) else complex(w)
    if zz.imag <= 0.0 or ww.imag <= 0.0:
        raise DomainError("hyp_dist arguments must lie in the upper half plane")
    return float(hyp_dist2(zz, ww))


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
    Each output row is one broadcast product per term, so a round costs six
    ufunc calls."""
    for i in range(2):
        np.multiply(A[i, 0, None], B[0], out=out[i])
        out[i] += A[i, 1, None] * B[1]
    return out


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
    double-double result stays within rounding of it.  Complex stacks are powered through the real 4 x 4 form [[X, -Y], [Y, X]]
    of X + iY.
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
