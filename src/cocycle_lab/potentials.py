"""Potential descriptors: periodic continuum profiles, discrete families,
circle potentials, and a small bundled library.

Continuum potentials are piecewise: named base profiles placed into
segments separated by exact-zero gaps.  Keeping the gaps structural (not
just numerically zero) lets padding operators stretch them symbolically
and lets transfer matrices cross them with closed-form propagators.
``expr`` is imported only where expression nodes are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ValidationError, reading, strict_int

_CONTINUITY_TOL = 1e-9
_SUP_SAMPLES = 4096  # grid of ContinuumPotential.sup_norm_estimate
# random (t, j) probes of DiscreteFamily.check_periodicity and their tolerance
_PERIODICITY_SAMPLES = 32
_PERIODICITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# continuum potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gap:
    """A zero stretch of the potential."""

    length: float

    def to_json(self):
        return {"gap": self.length}


@dataclass(frozen=True)
class Piece:
    """A window reading a named base profile.

    The window covers ``length`` units of time and evaluates
    base(shift + timescale * s) for local time s in [0, length].
    """

    base: str
    length: float
    shift: float = 0.0
    timescale: float = 1.0

    def to_json(self):
        return {
            "piece": {
                "base": self.base,
                "len": self.length,
                "shift": self.shift,
                "timescale": self.timescale,
            }
        }


@dataclass(frozen=True)
class ContinuumPotential:
    """Periodic locally integrable potential given by gaps and pieces.

    ``zero_nbhd`` declares that the potential vanishes on the trailing
    window [period - zero_nbhd, period]; validation requires that window
    to be covered by structural gaps.
    """

    period: float
    segments: tuple
    bases: dict = field(default_factory=dict)
    zero_nbhd: float = 0.0

    def __post_init__(self):
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValidationError("period must be positive and finite")
        if not self.segments:
            raise ValidationError("potential needs at least one segment")
        total = 0.0
        for seg in self.segments:
            if isinstance(seg, Gap):
                if not (seg.length > 0.0):
                    raise ValidationError("gap length must be positive")
            elif isinstance(seg, Piece):
                if not (seg.length > 0.0):
                    raise ValidationError("piece length must be positive")
                if seg.base not in self.bases:
                    raise ValidationError(f"piece references unknown base {seg.base!r}")
            else:
                raise ValidationError(f"unknown segment type {type(seg).__name__}")
            total += seg.length
        if abs(total - self.period) > _CONTINUITY_TOL * max(1.0, self.period):
            raise ValidationError(
                f"segment lengths sum to {total!r}, period is {self.period!r}"
            )
        if self.zero_nbhd < 0.0:
            raise ValidationError("zero_nbhd must be nonnegative")
        if self.zero_nbhd > 0.0:
            trailing = 0.0
            for seg in reversed(self.segments):
                if isinstance(seg, Gap):
                    trailing += seg.length
                else:
                    break
            if self.zero_nbhd > trailing + _CONTINUITY_TOL:
                raise ValidationError(
                    "zero_nbhd exceeds the trailing structural gap "
                    f"({self.zero_nbhd!r} > {trailing!r})"
                )
        self._check_continuity()

    def _check_continuity(self):
        # value must be continuous across segment boundaries and the wrap
        vals = []
        for seg in self.segments:
            if isinstance(seg, Gap):
                vals.append((0.0, 0.0))
            else:
                f = self.bases[seg.base]
                left = float(f(np.array([seg.shift]))[0])
                right = float(f(np.array([seg.shift + seg.timescale * seg.length]))[0])
                vals.append((left, right))
        for i in range(len(vals)):
            a = vals[i][1]
            b = vals[(i + 1) % len(vals)][0]
            if abs(a - b) > _CONTINUITY_TOL:
                raise ValidationError(
                    f"discontinuity {abs(a - b):.3e} between segments {i} and "
                    f"{(i + 1) % len(vals)}"
                )

    @property
    def boundaries(self) -> np.ndarray:
        """Cumulative segment start times, length len(segments) + 1."""
        out = np.zeros(len(self.segments) + 1)
        out[1:] = np.cumsum([s.length for s in self.segments])
        out[-1] = self.period
        return out

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.mod(np.atleast_1d(t), self.period)
        bounds = self.boundaries
        idx = np.clip(np.searchsorted(bounds, tt, side="right") - 1, 0, len(self.segments) - 1)
        out = np.zeros_like(tt)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if not mask.any() or isinstance(seg, Gap):
                continue
            local = tt[mask] - bounds[i]
            out[mask] = self.bases[seg.base](seg.shift + seg.timescale * local)
        return float(out[0]) if scalar else out

    def sup_norm_estimate(self) -> float:
        grid = np.linspace(0.0, self.period, _SUP_SAMPLES, endpoint=False)
        return float(np.max(np.abs(self(grid))))

    def to_json(self):
        return {
            "kind": "continuum-periodic",
            "period": self.period,
            "zero_nbhd": self.zero_nbhd,
            "bases": {k: v.to_json() for k, v in sorted(self.bases.items())},
            "segments": [s.to_json() for s in self.segments],
        }


def _segment_from_json(d):
    if "gap" in d:
        return Gap(float(d["gap"]))
    if "piece" in d:
        p = d["piece"]
        return Piece(
            base=str(p["base"]),
            length=float(p["len"]),
            shift=float(p.get("shift", 0.0)),
            timescale=float(p.get("timescale", 1.0)),
        )
    raise ValidationError(f"unknown segment {d!r}")


# ---------------------------------------------------------------------------
# discrete potentials and families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscretePotential:
    """A periodic sequence of reals, one value per site."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValidationError("discrete potential needs at least one value")
        for v in self.values:
            if not math.isfinite(v):
                raise ValidationError("potential values must be finite")

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, j):
        j = np.asarray(j)
        arr = np.asarray(self.values)
        return arr[np.mod(j, len(self.values))]

    def to_json(self):
        return {"kind": "discrete-periodic", "values": list(self.values)}


@dataclass(frozen=True)
class DiscreteFamily:
    """Family of integer-period potentials indexed by a circle parameter.

    v(t, j) is n0-periodic in t and n1-periodic in j.  ``n0_exact``
    carries the parameter period as an exact rational when the family
    was produced by operators that need exact arithmetic downstream.
    """

    n0: float
    n1: int
    expr: FamilyExpr
    n0_exact: Optional[Fraction] = None

    def __post_init__(self):
        if not (self.n0 > 0.0 and math.isfinite(self.n0)):
            raise ValidationError("parameter period must be positive and finite")
        if self.n1 < 1:
            raise ValidationError("integer period must be at least 1")
        if self.n0_exact is not None and abs(float(self.n0_exact) - self.n0) > 1e-12:
            raise ValidationError("n0_exact disagrees with n0")

    def __call__(self, t, j):
        return self.expr(t, j)

    def slice(self, t: float) -> DiscretePotential:
        j = np.arange(self.n1)
        vals = np.asarray(self.expr(float(t), j), dtype=float)
        return DiscretePotential(tuple(vals.tolist()))

    def check_periodicity(self) -> None:
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, self.n0, _PERIODICITY_SAMPLES)
        j = rng.integers(0, max(4 * self.n1, 8), _PERIODICITY_SAMPLES)
        base = self.expr(t, j)
        tol = dict(atol=_PERIODICITY_TOL, rtol=0.0)
        if not np.allclose(base, self.expr(t + self.n0, j), **tol):
            raise ValidationError("family is not periodic in the parameter")
        if not np.allclose(base, self.expr(t, j + self.n1), **tol):
            raise ValidationError("family is not periodic in the index")

    def to_json(self):
        d = {
            "kind": "discrete-family",
            "n0": self.n0,
            "n1": self.n1,
            "expr": self.expr.to_json(),
        }
        if self.n0_exact is not None:
            d["n0_exact"] = [self.n0_exact.numerator, self.n0_exact.denominator]
        return d


# ---------------------------------------------------------------------------
# circle potentials (continuum profiles on R/NZ, for the crumbling operator)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirclePotential:
    """Continuous potential on a circle of integer circumference."""

    period: int
    expr: ScalarExpr

    def __post_init__(self):
        if self.period < 1:
            raise ValidationError("circle circumference must be a positive integer")

    def __call__(self, x):
        return self.expr(np.mod(np.asarray(x, dtype=float), self.period))

    def to_json(self):
        return {"kind": "circle-potential", "period": self.period, "expr": self.expr.to_json()}


# ---------------------------------------------------------------------------
# descriptor I/O
# ---------------------------------------------------------------------------


def potential_from_json(d):
    """Rebuild any potential-like object from its descriptor dict."""
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise ValidationError(f"descriptor needs a 'kind' field: {d!r}")
    with reading(f"{kind} descriptor"):
        if kind == "discrete-periodic":
            return DiscretePotential(tuple(float(v) for v in d["values"]))
        from .expr import family_from_json, scalar_from_json
        if kind == "continuum-periodic":
            bases = {k: scalar_from_json(v) for k, v in d.get("bases", {}).items()}
            segments = tuple(_segment_from_json(s) for s in d["segments"])
            return ContinuumPotential(
                period=float(d["period"]),
                segments=segments,
                bases=bases,
                zero_nbhd=float(d.get("zero_nbhd", 0.0)),
            )
        if kind == "discrete-family":
            exact = d.get("n0_exact")
            return DiscreteFamily(
                n0=float(d["n0"]),
                n1=strict_int(d["n1"], "n1"),
                expr=family_from_json(d["expr"]),
                n0_exact=Fraction(exact[0], exact[1]) if exact is not None else None,
            )
        if kind == "circle-potential":
            return CirclePotential(strict_int(d["period"], "period"),
                                  scalar_from_json(d["expr"]))
    raise ValidationError(f"unknown descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# bundled library
# ---------------------------------------------------------------------------


def free_continuum(period: float = 1.0) -> ContinuumPotential:
    """The zero potential with the whole period declared as gap."""
    return ContinuumPotential(
        period=period, segments=(Gap(period),), bases={}, zero_nbhd=period
    )


def free_discrete(period: int = 1) -> DiscreteFamily:
    from .expr import FSum
    return DiscreteFamily(n0=1.0, n1=period, expr=FSum(()),
                          n0_exact=Fraction(1))


def cos_family(lam: float = 0.3, n1: int = 2) -> DiscreteFamily:
    """Smooth two-frequency family: lam (cos t-wave + cos j-wave)."""
    from .expr import FSum, JCos, TCos
    expr = FSum((
        TCos(amp=lam, period=1.0, harmonic=1),
        JCos(amp=lam, period=n1, harmonic=1),
    ))
    return DiscreteFamily(n0=1.0, n1=n1, expr=expr, n0_exact=Fraction(1))


def alternating(lam: float = 0.5) -> DiscreteFamily:
    """Values alternate 0, lam along the index; constant in the parameter."""
    from .expr import FConst, FSum, JCos
    # lam/2 (1 - cos(pi j)) written with serializable nodes
    expr = FSum((
        FConst(0.5 * lam),
        JCos(amp=-0.5 * lam, period=2, harmonic=1),
    ))
    return DiscreteFamily(n0=1.0, n1=2, expr=expr, n0_exact=Fraction(1))


def smooth_bump_potential(period: float = 2.0, height: float = 1.0,
                          zero_nbhd: float = 0.5) -> ContinuumPotential:
    """One compact bump followed by a structural gap.

    The bump occupies [0, period - zero_nbhd] and vanishes to all orders
    at both ends, so the potential is smooth on the circle.
    """
    from .expr import Bump, Scale
    support = period - zero_nbhd
    if support <= 0.0:
        raise ValidationError("zero_nbhd leaves no room for the bump")
    bump = Scale(height, Bump(center=support / 2.0, width=support / 2.0))
    return ContinuumPotential(
        period=period,
        segments=(Piece(base="bump", length=support), Gap(zero_nbhd)),
        bases={"bump": bump},
        zero_nbhd=zero_nbhd,
    )


def cosine_well_potential(period: float = 3.0, height: float = 2.0,
                          zero_nbhd: float = 1.0) -> ContinuumPotential:
    """A raised-cosine well, continuous at the gap, with a trailing gap."""
    from .expr import Const, Cos, Scale, Sum
    support = period - zero_nbhd
    if support <= 0.0:
        raise ValidationError("zero_nbhd leaves no room for the well")
    # height/2 (cos(2 pi s / support) - 1): zero at both ends, dips to -height
    base = Sum((
        Scale(0.5 * height, Cos(freq=1.0 / support)),
        Const(-0.5 * height),
    ))
    return ContinuumPotential(
        period=period,
        segments=(Piece(base="well", length=support), Gap(zero_nbhd)),
        bases={"well": base},
        zero_nbhd=zero_nbhd,
    )


def circle_cos(period: int = 2, amp: float = 0.4, harmonic: int = 1) -> CirclePotential:
    """amp cos(2 pi harmonic x / period) on a circle of circumference period."""
    from .expr import Cos, Scale
    return CirclePotential(
        period=period, expr=Scale(amp, Cos(freq=harmonic / period))
    )


BUNDLED = {
    "free-continuum": lambda: free_continuum(2.0),
    "free-discrete": lambda: free_discrete(1),
    "cos-family": lambda: cos_family(0.3, 2),
    "alternating": lambda: alternating(0.5),
    "smooth-bump": lambda: smooth_bump_potential(2.0, 1.0, 0.5),
    "cosine-well": lambda: cosine_well_potential(3.0, 2.0, 1.0),
    "circle-cos": lambda: circle_cos(2, 0.4, 1),
}


def bundled(name: str):
    try:
        maker = BUNDLED[name]
    except KeyError:
        raise ValidationError(
            f"unknown bundled potential {name!r}; choices: {sorted(BUNDLED)}"
        )
    return maker()
