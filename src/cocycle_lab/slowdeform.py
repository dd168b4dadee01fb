"""Normal forms for slowly modulated circle families of SL(2,R) matrices.

A circle family A(t) driven by a rotation t -> t + alpha generates the
products A(t + (k-1) alpha) ... A(t).  When the family is elliptic and
alpha is small, conjugating by the moving frame of invariant points
brings the family closer to a family of pure rotations; iterating the
frame construction gains one order of alpha per stage.

The ladder here implements the exact recursion

    B_1 = frame of A,
    A_m(t) = B_m(t + alpha) A(t) B_m(t)^-1,
    B_{m+1} = frame(A_m) B_m,

with the residual of stage m measured as the hyperbolic distance of the
invariant points of A_m from i (zero exactly for rotation families).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sl2
from .cocycle import plane_stack, site_products
from .errors import (
    NormalFormBreakdownError,
    ValidationError,
)
from .potentials import DiscreteFamily

_MARGIN = sl2.ELLIPTIC_MARGIN


@dataclass(frozen=True)
class SlowFamily:
    """Vectorized circle family t -> SL(2,R), period ``period`` in t."""

    fn: Callable
    period: float = 1.0

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t))
        if out.shape != t.shape + (2, 2):
            raise ValidationError(
                f"family returned shape {out.shape}, wanted {t.shape + (2, 2)}"
            )
        return out

    def ellipticity_margin(self, grid: int = 256) -> float:
        """min over a grid of 2 - |trace|; positive means uniformly elliptic."""
        t = self.period * np.arange(grid) / grid
        tr = sl2.tr2(self(t))
        if not np.all(np.isfinite(tr)):
            raise NormalFormBreakdownError("certificate", "non-finite trace")
        return float(np.min(2.0 - np.abs(tr)))


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def shear_rotation_family(theta0: float, wobble: float,
                          shear: float) -> SlowFamily:
    """Rotation with a wobbling angle times a wobbling shear.

    A smooth non-rotation family that stays uniformly elliptic for small
    wobble and shear; the standard test bed for the ladder decay.
    """

    def fn(t):
        t = np.asarray(t, dtype=float)
        R = sl2.rotation2(theta0 + wobble * np.cos(2.0 * np.pi * t))
        s = shear * np.sin(2.0 * np.pi * t)
        S = np.zeros(t.shape + (2, 2))
        S[..., 0, 0] = 1.0
        S[..., 1, 1] = 1.0
        S[..., 0, 1] = s
        return sl2.mul2(R, S)

    return SlowFamily(fn=fn)


def slice_monodromy_family(fam: DiscreteFamily, E: float) -> SlowFamily:
    """t -> one-period transfer matrix of the family slice at t, by
    cocycle.site_products over all phases at once.

    Oracle for ladder decay on slices; checked by test_slice_family_ladder_decay.
    """

    def fn(t):
        v = np.asarray(fam.expr(t[..., None], np.arange(fam.n1, dtype=float)),
                       dtype=float)
        for P in site_products(E, np.moveaxis(v, -1, 0)):
            pass
        return plane_stack(P)

    return SlowFamily(fn=fn, period=fam.n0)


# ---------------------------------------------------------------------------
# the frame ladder
# ---------------------------------------------------------------------------


def _guarded_frames(A: np.ndarray, stage) -> np.ndarray:
    tr = sl2.tr2(A)
    if not np.all(np.isfinite(tr)):
        raise NormalFormBreakdownError(stage, "non-finite trace in stage family")
    worst = float(np.max(np.abs(tr)))
    if worst >= 2.0 - _MARGIN:
        raise NormalFormBreakdownError(
            stage, f"stage family left the elliptic region (|tr| = {worst})"
        )
    u = sl2.fixed_points2(A)
    B = sl2.frames2(u)
    if not np.all(np.isfinite(B)):
        raise NormalFormBreakdownError(stage, "frame field degenerated")
    return B


class NormalFormLadder:
    """All stages of the frame recursion over one grid of base points.

    Evaluates the family on grid rows t + k alpha (k = 0..depth), then
    builds stages vectorized; stage m needs rows up to depth - m, so one
    ladder serves every stage up to its depth.
    """

    def __init__(self, family: SlowFamily, alpha: float, depth: int,
                 grid: int = 512, t0: float = 0.0):
        if depth < 1:
            raise ValidationError("ladder depth must be at least 1")
        if grid < 8:
            raise ValidationError("ladder grid is too coarse")
        self.family = family
        self.alpha = float(alpha)
        self.depth = int(depth)
        self.grid = int(grid)
        self.t_grid = t0 + family.period * np.arange(grid) / grid
        rows = np.arange(depth + 1, dtype=float)[:, None]
        T = self.t_grid[None, :] + self.alpha * rows
        A0 = family(T.reshape(-1)).reshape(depth + 1, grid, 2, 2)
        self._stages = {0: A0}
        self._frames = {1: _guarded_frames(A0, 1)}
        for m in range(1, depth + 1):
            Bm = self._frames[m]
            r = Bm.shape[0]
            Am = sl2.mul2(Bm[1:], sl2.mul2(A0[: r - 1], sl2.inv2(Bm[:-1])))
            self._stages[m] = Am
            if m < depth:
                self._frames[m + 1] = sl2.mul2(_guarded_frames(Am, m + 1),
                                               Bm[:-1])

    def _check_stage(self, m: int):
        if not 0 <= m <= self.depth:
            raise ValidationError(f"stage {m} outside ladder depth {self.depth}")

    def stage(self, m: int) -> np.ndarray:
        """Stage-m family on the base grid, shape (grid, 2, 2)."""
        self._check_stage(m)
        return self._stages[m][0]

    def frame(self, m: int) -> np.ndarray:
        self._check_stage(m)
        if m == 0:
            raise ValidationError("stage 0 has no frame")
        return self._frames[m][0]

    def residual(self, m: int) -> float:
        """sup over the grid of d_H(invariant point of stage m, i)."""
        A = self.stage(m)
        tr = sl2.tr2(A)
        if not np.all(np.isfinite(tr)) or np.max(np.abs(tr)) >= 2.0 - _MARGIN:
            raise NormalFormBreakdownError(m, "stage left the elliptic region")
        u = sl2.fixed_points2(A)
        d = sl2.hyp_dist2(u, 1j)
        return float(np.max(d))

    def frame_drift(self, m: int) -> float:
        """sup_t of the Frobenius gap ||B_m(t+alpha) B_m(t)^-1 - I||."""
        self._check_stage(m)
        if m == 0:
            raise ValidationError("stage 0 has no frame")
        B = self._frames[m]
        G = sl2.mul2(B[1], sl2.inv2(B[0]))
        return float(np.max(np.linalg.norm(G - np.eye(2), axis=(-2, -1))))

    def theta_drift(self) -> float:
        """sup_t of the wrapped angle increment of the base family per step."""
        A0 = self._stages[0]
        th0 = sl2.rotation_angles2(A0[0])
        th1 = sl2.rotation_angles2(A0[1])
        d = (th1 - th0 + 0.5) % 1.0 - 0.5
        return float(np.max(np.abs(d)))

    def winding(self, m: int = 0) -> int:
        th = sl2.rotation_angles2(self.stage(m))
        closed = np.append(th, th[0])
        un = np.unwrap(closed, period=1.0)
        return int(round(un[-1] - un[0]))


def decay_table(family_of_n: Callable, alpha_of_n: Callable, ns, depth: int,
                grid: int = 256) -> list:
    """Residual/drift rows for every stage and slowness in the sweep."""
    rows = []
    for n in ns:
        ladder = NormalFormLadder(family_of_n(n), alpha_of_n(n), depth=depth,
                                  grid=grid)
        for m in range(1, depth + 1):
            rows.append({
                "m": m,
                "n": int(n),
                "residual": ladder.residual(m),
                "B_drift": ladder.frame_drift(m),
                "theta_drift": ladder.theta_drift(),
            })
    return rows


# ---------------------------------------------------------------------------
# scalar recursion (independent route, used to cross-check the ladder)
# ---------------------------------------------------------------------------


def _family_at(family: SlowFamily, t: float) -> np.ndarray:
    return family(np.array([t]))[0]


def frame_stage(family: SlowFamily, alpha: float, m: int, t: float,
                _memo=None) -> np.ndarray:
    """B_m(t) by the literal recursion, one point at a time."""
    if m < 1:
        raise ValidationError("frame stages start at 1")
    memo = {} if _memo is None else _memo
    key = ("B", m, t)
    if key in memo:
        return memo[key]
    if m == 1:
        out = _guarded_frames(_family_at(family, t)[None], 1)[0]
    else:
        A_prev = stage_matrix(family, alpha, m - 1, t, _memo=memo)
        out = _guarded_frames(A_prev[None], m)[0] @ frame_stage(
            family, alpha, m - 1, t, _memo=memo
        )
    memo[key] = out
    return out


def stage_matrix(family: SlowFamily, alpha: float, m: int, t: float,
                 _memo=None) -> np.ndarray:
    """A_m(t) by the literal recursion."""
    memo = {} if _memo is None else _memo
    if m == 0:
        return _family_at(family, t)
    B0 = frame_stage(family, alpha, m, t, _memo=memo)
    B1 = frame_stage(family, alpha, m, t + alpha, _memo=memo)
    return B1 @ _family_at(family, t) @ np.linalg.inv(B0)


def slow_product(family: SlowFamily, alpha: float, t0: float,
                 count: int) -> np.ndarray:
    """Ordered product A(t0 + (count-1) alpha) ... A(t0) by sl2.plane_product;
    a determinant drift of the factors is kept, not renormalized away.

    Oracle for products along an orbit; checked by test_stage_product_telescopes.
    """
    if count < 0:
        raise ValidationError("product length must be nonnegative")
    if count == 0:
        return np.eye(2)
    ts = t0 + alpha * np.arange(count)
    return sl2.plane_product(np.moveaxis(family(ts), 0, 2))


def stage_product(family: SlowFamily, alpha: float, m: int, t0: float,
                  count: int) -> np.ndarray:
    """Ordered product of the stage-m family along the same orbit.

    Oracle for the ladder's telescoping; checked by test_stage_product_telescopes.
    """
    out = np.eye(2)
    memo = {}
    for k in range(count):
        out = stage_matrix(family, alpha, m, t0 + alpha * k, _memo=memo) @ out
    return out
