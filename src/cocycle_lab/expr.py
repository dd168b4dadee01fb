"""Closed-form expression trees for potentials and parameter families.

Two small languages: scalar trees over one variable (potential profiles,
circle potentials) and family trees over a pair (t, j) (parameter
families of integer-indexed potentials).  Every node evaluates on numpy
arrays and serializes to a canonical JSON dict, so deformation
operators can stay symbolic instead of resampling.

Codec contract: every node is a frozen dataclass deriving from ``Node``
with a class attribute ``kind``; its field names are the JSON keys.
``Node.to_json`` writes ``kind`` and then each field in order, child
nodes and tuples of them recursively.  ``from_json`` looks ``kind`` up in
the registry of its language (``_LANGUAGES``) and converts each field by
its annotation: ``float``, ``int``, a child node of a language, or
``tuple[<language>, ...]``; an absent field takes the dataclass default.
A missing or malformed field raises ``ValidationError`` naming the kind
and the field.  A new node is a dataclass with a ``kind`` plus an entry
in ``_LANGUAGES``.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import ValidationError, reading, strict_int

# ---------------------------------------------------------------------------
# node base and encoding
# ---------------------------------------------------------------------------


class Node:
    """Base of every expression node; see the module docstring."""

    kind: typing.ClassVar[str]

    def to_json(self):
        d = {"kind": self.kind}
        for f in fields(self):
            d[f.name] = _encode(getattr(self, f.name))
        return d


def _encode(v):
    if isinstance(v, Node):
        return v.to_json()
    if isinstance(v, tuple):
        return [_encode(t) for t in v]
    return v


# ---------------------------------------------------------------------------
# smooth bump machinery
# ---------------------------------------------------------------------------


def _cutoff(s):
    """exp(-1/s) for s > 0, extended by 0; the standard C-infinity cutoff."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_ramp(s):
    """Monotone C-infinity ramp: 0 for s <= 0, 1 for s >= 1."""
    f = _cutoff(np.asarray(s, dtype=float))
    g = _cutoff(1.0 - np.asarray(s, dtype=float))
    return f / (f + g)


@dataclass(frozen=True)
class BumpProfile(Node):
    """Window profile used by the slide deformation.

    Vanishes off [-3/4, 7/4], equals 1 on [-1/4, 5/4], rises and falls
    through C-infinity ramps of width 1/2.
    """

    kind = "bump_profile"
    lo_start: float = -0.75
    lo_end: float = -0.25
    hi_start: float = 1.25
    hi_end: float = 1.75

    def __post_init__(self):
        if not (self.lo_start < self.lo_end <= self.hi_start < self.hi_end):
            raise ValidationError("bump profile knots must be increasing")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        up = smooth_ramp((x - self.lo_start) / (self.lo_end - self.lo_start))
        down = smooth_ramp((self.hi_end - x) / (self.hi_end - self.hi_start))
        return up * down

    @staticmethod
    def from_json(d) -> BumpProfile:
        return from_json(BumpProfile, d)


# ---------------------------------------------------------------------------
# scalar expression trees
# ---------------------------------------------------------------------------


class ScalarExpr(Node):
    """Base of the scalar language: nodes are called on x."""


@dataclass(frozen=True)
class Const(ScalarExpr):
    kind = "const"
    value: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class Cos(ScalarExpr):
    """cos(2 pi (freq x + phase))."""

    kind = "cos"
    freq: float
    phase: float = 0.0

    def __call__(self, x):
        return np.cos(2.0 * np.pi * (self.freq * np.asarray(x, dtype=float) + self.phase))


@dataclass(frozen=True)
class Bump(ScalarExpr):
    """exp(1 - 1/(1 - s^2)) with s = (x - center)/width, zero for |s| >= 1."""

    kind = "bump"
    center: float
    width: float

    def __call__(self, x):
        s = (np.asarray(x, dtype=float) - self.center) / self.width
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
        return out


@dataclass(frozen=True)
class Sum(ScalarExpr):
    kind = "sum"
    terms: tuple[ScalarExpr, ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t(x)
        return out


@dataclass(frozen=True)
class Scale(ScalarExpr):
    kind = "scale"
    factor: float
    of: ScalarExpr

    def __call__(self, x):
        return self.factor * self.of(x)


@dataclass(frozen=True)
class Affine(ScalarExpr):
    """Reparameterization x -> of(a x + b)."""

    kind = "affine"
    a: float
    b: float
    of: ScalarExpr

    def __call__(self, x):
        return self.of(self.a * np.asarray(x, dtype=float) + self.b)


@dataclass(frozen=True)
class CrumbleExpr(ScalarExpr):
    """Two-speed traversal of a period-N profile, total period 3 n N.

    Runs through the parent n+1 times on [0, nN] and another 2n+1 times
    on [nN, 3nN], so the output is continuous and 3nN-periodic.
    """

    kind = "crumble"
    n: int
    parent_period: float
    of: ScalarExpr

    def __call__(self, x):
        n, N = self.n, self.parent_period
        x = np.mod(np.asarray(x, dtype=float), 3.0 * n * N)
        first = x <= n * N
        arg = np.where(first, (n + 1.0) * x / n, (2.0 * n + 1.0) * (x - n * N) / (2.0 * n))
        # honor the parent's circle identification even for non-periodic exprs
        return self.of(np.mod(arg, N))


# ---------------------------------------------------------------------------
# family expression trees over (t, j)
# ---------------------------------------------------------------------------


class FamilyExpr(Node):
    """Base of the family language: nodes are called on (t, j)."""


@dataclass(frozen=True)
class FConst(FamilyExpr):
    kind = "fconst"
    value: float

    def __call__(self, t, j):
        t, j = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(j))
        return np.full(t.shape, self.value)


@dataclass(frozen=True)
class TCos(FamilyExpr):
    """amp cos(2 pi (harmonic t / period + phase)); constant in j."""

    kind = "tcos"
    amp: float
    period: float
    harmonic: int = 1
    phase: float = 0.0

    def __call__(self, t, j):
        t, j = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(j))
        return self.amp * np.cos(
            2.0 * np.pi * (self.harmonic * t / self.period + self.phase)
        )


@dataclass(frozen=True)
class JCos(FamilyExpr):
    """amp cos(2 pi (harmonic j / period + phase)); constant in t."""

    kind = "jcos"
    amp: float
    period: int
    harmonic: int = 1
    phase: float = 0.0

    def __call__(self, t, j):
        t, j = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(j))
        return self.amp * np.cos(
            2.0 * np.pi * (self.harmonic * np.asarray(j, dtype=float) / self.period + self.phase)
        )


@dataclass(frozen=True)
class FSum(FamilyExpr):
    kind = "fsum"
    terms: tuple[FamilyExpr, ...]

    def __call__(self, t, j):
        t, j = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(j))
        out = np.zeros(t.shape)
        for term in self.terms:
            out = out + term(t, j)
        return out


@dataclass(frozen=True)
class FScale(FamilyExpr):
    kind = "fscale"
    factor: float
    of: FamilyExpr

    def __call__(self, t, j):
        return self.factor * self.of(t, j)


@dataclass(frozen=True)
class RepeatExpr(FamilyExpr):
    """Same values, integer period multiplied by n at the family level."""

    kind = "repeat"
    n: int
    of: FamilyExpr

    def __call__(self, t, j):
        return self.of(t, j)


@dataclass(frozen=True)
class TwistExpr(FamilyExpr):
    """Block k of the enlarged index reads the parent at t + n0 k / n.

    n0, n1 are the parent periods; the child integer period is n n1.
    """

    kind = "twist"
    n: int
    n0: float
    n1: int
    of: FamilyExpr

    def __call__(self, t, j):
        t = np.asarray(t, dtype=float)
        j = np.asarray(j)
        t, j = np.broadcast_arrays(t, j)
        jm = np.mod(j, self.n * self.n1)
        k = jm // self.n1
        l = np.mod(jm, self.n1)
        return self.of(t + self.n0 * np.asarray(k, dtype=float) / self.n, l)


@dataclass(frozen=True)
class SlideExpr(FamilyExpr):
    """Last third of a tripled index slides by delta inside a bump window.

    Parent periods (n0, n1); child periods (2 n n0, 3 n1).  The window
    sits at parameter time n n0 and has the shape of ``bump``.
    """

    kind = "slide"
    delta: float
    n: int
    n0: float
    n1: int
    bump: BumpProfile
    of: FamilyExpr

    def __call__(self, t, j):
        t = np.asarray(t, dtype=float)
        j = np.asarray(j)
        t, j = np.broadcast_arrays(t, j)
        l = np.mod(j, 3 * self.n1)
        tm = np.mod(t, 2.0 * self.n * self.n0)
        shift = np.where(
            l >= 2 * self.n1, self.delta * self.bump(tm - self.n * self.n0), 0.0
        )
        return self.of(t + shift, np.mod(l, self.n1))


@dataclass(frozen=True)
class SamplingExpr(FamilyExpr):
    """Sampling change of variables: reads the parent at (t - j a, j)."""

    kind = "sampling"
    a_num: int
    a_den: int
    of: FamilyExpr

    @property
    def a(self) -> Fraction:
        return Fraction(self.a_num, self.a_den)

    def __call__(self, t, j):
        t = np.asarray(t, dtype=float)
        j = np.asarray(j)
        t, j = np.broadcast_arrays(t, j)
        a = self.a_num / self.a_den
        return self.of(t - np.asarray(j, dtype=float) * a, j)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

# language base -> (name in messages, registry of its kinds)
_LANGUAGES = {
    ScalarExpr: ("scalar expression", {c.kind: c for c in (
        Const, Cos, Bump, Sum, Scale, Affine, CrumbleExpr)}),
    FamilyExpr: ("family expression", {c.kind: c for c in (
        FConst, TCos, JCos, FSum, FScale, RepeatExpr, TwistExpr, SlideExpr,
        SamplingExpr)}),
    BumpProfile: ("bump profile", {BumpProfile.kind: BumpProfile}),
}


@functools.cache
def _field_types(cls):
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def _decode_field(tp, v):
    if tp is int:
        return strict_int(v)
    if tp is float:
        return float(v)
    if typing.get_origin(tp) is tuple:
        return tuple(from_json(typing.get_args(tp)[0], t) for t in v)
    return from_json(tp, v)


def from_json(language, d):
    """Rebuild a node of ``language`` (a key of ``_LANGUAGES``) from its dict."""
    name, kinds = _LANGUAGES[language]
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind is None:
        raise ValidationError(f"{name} needs a 'kind' field: {d!r}")
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown {name} kind {kind!r}")
    values = {}
    for f, tp in _field_types(cls):
        if f.name in d:
            with reading(f"{kind} field {f.name!r}"):
                values[f.name] = _decode_field(tp, d[f.name])
        elif f.default is MISSING:
            raise ValidationError(f"{kind} needs a {f.name!r} field")
    return cls(**values)


def scalar_from_json(d) -> ScalarExpr:
    return from_json(ScalarExpr, d)


def family_from_json(d) -> FamilyExpr:
    return from_json(FamilyExpr, d)
