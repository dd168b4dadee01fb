"""Potential deformation operators.

Continuum side: one padding operator, ``pad``, stretches the zero
stretches of a periodic potential in two layouts.  A ``PaddingSpec`` pads
block j of 2n blocks of N periods by delta sin^(2N)(pi j / 2n) (the growth
cascade); a ``UniformPadding`` pads the last n of 2n periods by delta (the
mixing stages of towers).  The padded monodromy factors into padding
blocks (a free propagator over the pad times a power of the original
monodromy); ``padding_chunks`` builds them one chunk of pads per call,
``padding_product`` multiplies them without renormalizing, and the closed
forms below are test oracles for that factorization.

Discrete side: symbolic family operators (repeat, twist, slide,
sampling) rewrite a family of integer-period potentials; everything
stays exact because the operators act on expression trees.

Circle side: the crumbling operator re-parameterizes a circle potential
at two nearby speeds, tripling its circumference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sl2
from .cocycle import ContinuumCocycle, free_block
from .errors import (
    DomainError,
    NotEllipticError,
    NumericOverflowError,
    ValidationError,
)
from .expr import (
    BumpProfile,
    CrumbleExpr,
    RepeatExpr,
    SamplingExpr,
    SlideExpr,
    TwistExpr,
)
from .potentials import (
    CirclePotential,
    ContinuumPotential,
    DiscreteFamily,
    Gap,
)

_CHUNK_BLOCKS = 2**15  # blocks (pads x matrices of MN) per chunk of padding_chunks


# ---------------------------------------------------------------------------
# continuum padding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaddingSpec:
    """Parameters of the modulated padding operator.

    2n blocks of N original periods each; after block j a zero stretch
    of length delta sin^(2N)(pi j / 2n) is inserted.
    """

    delta: float
    N: int
    n: int

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValidationError("padding length must be nonnegative")
        if self.N < 1 or self.n < 1:
            raise ValidationError("padding block counts must be positive")

    def pad_length(self, t):
        """Pad length delta sin^(2N)(pi t) after a block at phase t."""
        return self.delta * np.sin(np.pi * np.asarray(t, dtype=float)) ** (2 * self.N)

    def pad_lengths(self) -> np.ndarray:
        """pad_length at the 2n block phases j / 2n, rounded as pi j / 2n."""
        j = np.arange(2 * self.n)
        return self.delta * np.sin(np.pi * j / (2.0 * self.n)) ** (2 * self.N)

    def new_period(self, T: float) -> float:
        return 2 * self.N * self.n * T + float(np.sum(self.pad_lengths()))


@dataclass(frozen=True)
class UniformPadding:
    """Parameters of the uniform padding operator: 2n copies of one
    period; the last n are each followed by a zero stretch of length delta.
    """

    delta: float
    n: int
    N = 1  # one period per block; a class constant, not a field

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValidationError("padding length must be nonnegative")
        if self.n < 1:
            raise ValidationError("copy count must be positive")

    def pad_lengths(self) -> np.ndarray:
        """n zeros, then n copies of delta."""
        return np.repeat([0.0, self.delta], self.n)

    def new_period(self, T: float) -> float:
        return 2 * self.n * T + self.n * self.delta


def pad(pot: ContinuumPotential,
        spec: PaddingSpec | UniformPadding) -> ContinuumPotential:
    """Padding: 2n blocks of N periods, block j followed by a zero stretch
    of spec.pad_lengths()[j] (none where it is 0)."""
    if pot.zero_nbhd <= 0.0:
        raise ValidationError("padding needs a potential with a zero stretch")
    pads = spec.pad_lengths()
    segments = []
    for j in range(2 * spec.n):
        for _ in range(spec.N):
            segments.extend(pot.segments)
        if pads[j] > 0.0:
            segments.append(Gap(float(pads[j])))
    return ContinuumPotential(
        period=spec.new_period(pot.period),
        segments=tuple(segments),
        bases=dict(pot.bases),
        zero_nbhd=pot.zero_nbhd + float(pads[-1]),
    )


def padding_block(E, pad, MN) -> np.ndarray:
    """Padding block [free propagator over the pad] . MN, shape (..., 2, 2).

    MN is the block of N base monodromies; E and pad broadcast against
    its stack.
    """
    return sl2.mul2(free_block(E, pad), MN)


def padding_chunks(E, pads, MN):
    """Yield the padding blocks of the pads in order, as (chunk, ..., 2, 2)
    stacks of padding_block(E, pad, MN) over consecutive chunks of at most
    _CHUNK_BLOCKS // (matrices in MN) pads."""
    size = max(1, 4 * _CHUNK_BLOCKS // np.size(MN))
    pads = np.reshape(pads, (-1,) + (1,) * (np.ndim(MN) - 2))
    for i in range(0, len(pads), size):
        yield padding_block(E, pads[i:i + size], MN)


def padding_product(E, pads, MN):
    """(product, elliptic): the product of the padding blocks of the pads,
    the last leftmost, and whether every block has |trace| < 2.  Each chunk
    is multiplied by sl2.plane_product and the running product is carried
    across chunks; nothing is renormalized."""
    product, elliptic = np.eye(2), True
    for blocks in padding_chunks(E, pads, MN):
        elliptic = elliptic & np.all(np.abs(sl2.tr2(blocks)) < 2.0, axis=0)
        chunk = sl2.plane_product(np.moveaxis(blocks, (-2, -1), (0, 1)))
        product = sl2.mul2(np.moveaxis(chunk, (0, 1), (-2, -1)), product)
    return product, elliptic


def padded_block_matrix(base: ContinuumCocycle, E: float, spec: PaddingSpec,
                        t) -> np.ndarray:
    """Padding blocks G(E, t) = [pad rotation at phase t] [M(E)^N], shape
    np.shape(t) + (2, 2): one base monodromy and one power for all phases."""
    if not E > 0.0:
        raise DomainError("padding blocks need E > 0")
    MN = sl2.power2(base.monodromy(E), spec.N)
    return padding_block(E, spec.pad_length(t), MN)


def padded_monodromy_formula(base: ContinuumCocycle, E: float,
                             spec: PaddingSpec) -> np.ndarray:
    """Monodromy of the padded potential as the ordered block product.

    Oracle for pad's monodromy; checked by test_pad_monodromy_matches_block_product.
    """
    phases = np.arange(2 * spec.n) / (2.0 * spec.n)
    out = np.eye(2)
    for G in padded_block_matrix(base, E, spec, phases):
        out = G @ out
    return out


def frame_data(base: ContinuumCocycle, E: float) -> tuple[float, complex, float]:
    """(theta, u, lam) of the (2, 2) base monodromy array at an elliptic
    positive energy: float turns, complex sl2.invariant_point, float.

    lam = exp(d(u, sqrt(E) i)/2) measures how far the invariant point
    sits from the free-energy frame; it controls all padding traces.
    """
    if not E > 0.0:
        raise DomainError("frame data needs E > 0")
    M = base.monodromy(E)
    u = sl2.invariant_point(M)
    theta = float(sl2.rotation_angles2(M, u))
    lam = math.exp(float(sl2.hyp_dist2(u, 1j * math.sqrt(E))) / 2.0)
    return theta, u, lam


def block_trace_formula(E: float, theta: float, lam: float, spec: PaddingSpec,
                        t: float) -> float:
    """Trace of a padding block from invariants alone.

    2 cos(alpha + beta) - (lam - 1/lam)^2 sin(alpha) sin(beta) with
    alpha the pad rotation angle and beta the N-fold base angle.

    Oracle for block traces; checked by test_block_trace_formula_matches_matrix.
    """
    alpha = spec.delta * math.sqrt(E) * math.sin(math.pi * t) ** (2 * spec.N)
    beta = 2.0 * math.pi * spec.N * theta
    return (2.0 * math.cos(alpha + beta)
            - (lam - 1.0 / lam) ** 2 * math.sin(alpha) * math.sin(beta))


def proper_svd(Q: np.ndarray):
    """Q = R1 diag(lam, 1/lam) R2 with proper rotations and lam >= 1."""
    U, s, Vt = np.linalg.svd(Q)
    if np.linalg.det(U) < 0:
        U = U.copy()
        Vt = Vt.copy()
        U[:, 1] = -U[:, 1]
        Vt[1, :] = -Vt[1, :]
    return U, float(s[0]), Vt


@dataclass(frozen=True)
class HalfTurnPoint:
    """Invariant point of the half-phase padding block, with the quadratic's
    coefficients kept for inspection."""

    w: complex
    a: float
    b: float
    c: float

    @property
    def im_closed_form(self) -> float:
        return math.sqrt(4.0 * self.a * self.c - self.b * self.b) / (2.0 * abs(self.a))


def half_turn_fixed_point(base: ContinuumCocycle, E: float, delta: float,
                          N: int) -> HalfTurnPoint:
    """Invariant point of G(E, 1/2), the block with the fully open pad.

    Solved in the frame where the base monodromy is a rotation: there
    the block is diag(lam, 1/lam)-conjugated rotation times another
    rotation, whose invariant point satisfies an explicit quadratic.

    Oracle for half-turn points; checked by test_half_turn_fixed_point_matches_direct.
    """
    theta, u, lam = frame_data(base, E)
    B = sl2.frames2(np.complex128(u))
    q = E ** 0.25
    Q = B @ np.array([[q, 0.0], [0.0, 1.0 / q]])
    R1, lam_svd, _ = proper_svd(Q)
    if not math.isclose(lam, lam_svd, rel_tol=1e-9, abs_tol=1e-12):
        raise NotEllipticError("frame factorization disagrees with the metric")
    alpha = delta * math.sqrt(E)
    beta = 2.0 * math.pi * N * theta
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    a = ca * sb + sa * cb / (lam * lam)
    b = (lam * lam - 1.0 / (lam * lam)) * sa * sb
    c = ca * sb + lam * lam * sa * cb
    disc = 4.0 * a * c - b * b
    if disc <= 0.0 or a == 0.0:
        raise NotEllipticError(
            f"half-phase block is not elliptic at E={E!r}, delta={delta!r}"
        )
    w2 = complex(-b / (2.0 * a), math.sqrt(disc) / (2.0 * abs(a)))
    w = complex(sl2.moebius2(sl2.inv2(B) @ R1, w2))
    if not (math.isfinite(w.real) and math.isfinite(w.imag)) or w.imag <= 0.0:
        raise NumericOverflowError("half-phase invariant point out of range")
    return HalfTurnPoint(w=w, a=a, b=b, c=c)


# ---------------------------------------------------------------------------
# discrete family operators
# ---------------------------------------------------------------------------


def repeat_family(fam: DiscreteFamily, n: int) -> DiscreteFamily:
    """Same values, declared integer period multiplied by n."""
    if n < 1:
        raise ValidationError("repeat count must be positive")
    return DiscreteFamily(
        n0=fam.n0,
        n1=fam.n1 * n,
        expr=RepeatExpr(n=n, of=fam.expr),
        n0_exact=fam.n0_exact,
    )


def twist_family(fam: DiscreteFamily, n: int) -> DiscreteFamily:
    """n blocks per new period; block k reads the parent at t + n0 k / n."""
    if n < 1:
        raise ValidationError("twist count must be positive")
    return DiscreteFamily(
        n0=fam.n0,
        n1=fam.n1 * n,
        expr=TwistExpr(n=n, n0=fam.n0, n1=fam.n1, of=fam.expr),
        n0_exact=fam.n0_exact,
    )


def slide_family(fam: DiscreteFamily, delta: float, n: int,
                 bump: BumpProfile = None) -> DiscreteFamily:
    """Triple the index period; the last third slides inside a bump window."""
    if n < 1:
        raise ValidationError("slide count must be positive")
    if 2 * n * fam.n0 < 3.0:
        raise ValidationError(
            "slide needs 2 n n0 >= 3 so the bump window fits in one period"
        )
    bump = bump if bump is not None else BumpProfile()
    exact = None if fam.n0_exact is None else 2 * n * fam.n0_exact
    return DiscreteFamily(
        n0=2.0 * n * fam.n0,
        n1=3 * fam.n1,
        expr=SlideExpr(delta=delta, n=n, n0=fam.n0, n1=fam.n1, bump=bump,
                       of=fam.expr),
        n0_exact=exact,
    )


def sampling_family(fam: DiscreteFamily, a: Fraction) -> DiscreteFamily:
    """Shear v(t, j) -> v(t - j a, j); needs a n1 to be a multiple of n0."""
    if fam.n0_exact is None:
        raise ValidationError("sampling needs an exact parameter period")
    ratio = Fraction(a) * fam.n1 / fam.n0_exact
    if ratio.denominator != 1:
        raise ValidationError(
            f"sampling step {a} breaks index periodicity: a n1 / n0 = {ratio}"
        )
    a = Fraction(a)
    return DiscreteFamily(
        n0=fam.n0,
        n1=fam.n1,
        expr=SamplingExpr(a_num=a.numerator, a_den=a.denominator, of=fam.expr),
        n0_exact=fam.n0_exact,
    )


def crumble_circle(circ: CirclePotential, n: int) -> CirclePotential:
    """Two-speed traversal of a circle potential, circumference tripled."""
    if n < 1:
        raise ValidationError("crumble count must be positive")
    return CirclePotential(
        period=3 * n * circ.period,
        expr=CrumbleExpr(n=n, parent_period=float(circ.period), of=circ.expr),
    )


# ---------------------------------------------------------------------------
# interleaved rotation traces
# ---------------------------------------------------------------------------


def interleaved_trace(theta1: float, m1: int, theta2: float, m2: int,
                      dist: float) -> float:
    """Trace of B2^-1 R(m2 theta2) B2 B1^-1 R(m1 theta1) B1.

    Depends on the frames only through the hyperbolic distance of their
    base points: with lam = exp(dist/2),

        2 cos(2 pi (m1 theta1 + m2 theta2))
        - (lam - 1/lam)^2 sin(2 pi m1 theta1) sin(2 pi m2 theta2).

    Oracle for the slide trace; checked by test_slide_trace_formula.
    """
    lam = math.exp(dist / 2.0)
    p1 = 2.0 * math.pi * m1 * theta1
    p2 = 2.0 * math.pi * m2 * theta2
    return (2.0 * math.cos(p1 + p2)
            - (lam - 1.0 / lam) ** 2 * math.sin(p1) * math.sin(p2))


def slide_slice_factors(fam: DiscreteFamily, delta: float, n: int, t: float,
                        bump: BumpProfile = None):
    """Parent parameters (t_plain, t_slid) seen by a slide slice at t.

    The slice concatenates two plain parent periods and one slid period,
    so its monodromy is A[t_slid] A[t_plain]^2.

    Oracle for slide slices; checked by test_slide_plateau_slice_identity.
    """
    bump = bump if bump is not None else BumpProfile()
    tm = math.fmod(t, 2.0 * n * fam.n0)
    if tm < 0:
        tm += 2.0 * n * fam.n0
    shift = delta * float(bump(np.array([tm - n * fam.n0]))[0])
    return t, t + shift
