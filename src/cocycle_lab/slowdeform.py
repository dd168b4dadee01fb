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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sl2
from .cocycle import ContinuumCocycle
from .deform import PaddingSpec, padding_block
from .errors import (
    DomainError,
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


def rotation_slow_family(theta_fn: Callable, period: float = 1.0) -> SlowFamily:
    """Family of exact rotations by theta_fn(t) turns."""

    def fn(t):
        return sl2.rotation2(np.asarray(theta_fn(t), dtype=float))

    return SlowFamily(fn=fn, period=period)


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


def padded_block_family(base: ContinuumCocycle, E: float, delta: float,
                        N: int) -> SlowFamily:
    """The padding block G(E, t) as a circle family in the block phase t.

    Traversed with alpha = 1/(2n) this is exactly the family whose
    ordered product is the padded monodromy, so its ladder residuals
    quantify how slow a padding must be.
    """
    if not E > 0.0:
        raise DomainError("padding blocks need E > 0")
    MN = sl2.power2(base.monodromy(E), N)
    # the block count n does not enter a single block
    spec = PaddingSpec(delta=delta, N=N, n=1)

    def fn(t):
        return padding_block(E, spec.pad_length(t), MN)

    return SlowFamily(fn=fn)


def slice_monodromy_family(fam: DiscreteFamily, E: float) -> SlowFamily:
    """t -> one-period transfer matrix of the family slice at t."""

    def fn(t):
        t = np.asarray(t, dtype=float)
        j = np.arange(fam.n1, dtype=float)
        v = np.asarray(fam.expr(t[..., None], j), dtype=float)
        out = np.zeros(t.shape + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        step = np.zeros(t.shape + (2, 2))
        step[..., 0, 1] = -1.0
        step[..., 1, 0] = 1.0
        for jj in range(fam.n1):
            step[..., 0, 0] = E - v[..., jj]
            out = sl2.mul2(step, out)
        return out

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
        d = sl2.hyp_dist2(u, np.full(u.shape, 1j))
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
    a determinant drift of the factors is kept, not renormalized away."""
    if count < 0:
        raise ValidationError("product length must be nonnegative")
    if count == 0:
        return np.eye(2)
    ts = t0 + alpha * np.arange(count)
    return sl2.plane_product(np.moveaxis(family(ts), 0, 2))


def stage_product(family: SlowFamily, alpha: float, m: int, t0: float,
                  count: int) -> np.ndarray:
    """Ordered product of the stage-m family along the same orbit."""
    out = np.eye(2)
    memo = {}
    for k in range(count):
        out = stage_matrix(family, alpha, m, t0 + alpha * k, _memo=memo) @ out
    return out


# ---------------------------------------------------------------------------
# phase statistics and stability
# ---------------------------------------------------------------------------


def tilde_theta_curve(system, e_grid: np.ndarray) -> np.ndarray:
    """Unwrapped monodromy rotation angle along an energy grid, turns.

    The grid must stay inside the elliptic region; the lift makes the
    winding across many bands visible, which is what the folded phase
    statistics below consume.
    """
    th = sl2.rotation_angles2(system.monodromy(np.asarray(e_grid, dtype=float)))
    if not np.all(np.isfinite(th)):
        raise DomainError("energy grid leaves the elliptic region")
    return np.unwrap(th, period=1.0)


def phase_proxy(theta_tilde: np.ndarray, factor: float) -> np.ndarray:
    """Rescaled unwrapped angles folded to the unit circle."""
    return np.mod(factor * np.asarray(theta_tilde, dtype=float), 1.0)


def equidistribution_ks(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample in [0,1) from uniform."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValidationError("empty sample")
    if np.any(values < 0.0) or np.any(values >= 1.0):
        raise ValidationError("sample must live in [0, 1)")
    # sup |F_n - F| is attained at a sample, just before or just after a jump
    x = np.sort(values, axis=None)
    n = x.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - x)
    d_minus = np.max(x - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def fixed_point_stability(A: np.ndarray, threshold: float = 1e-3) -> float:
    """Condition estimate (a float) for the invariant point u of an
    elliptic (2, 2) array A, from sl2.invariant_point.

    exp(d(u, i)) / |sin(2 pi theta)|: an sl2-size perturbation epsilon
    moves u by at most about this factor times epsilon.  Requires the
    rotation angle theta of A to clear the threshold, since the invariant
    point degenerates as the angle approaches 0 or 1/2.
    """
    u = sl2.invariant_point(A)
    theta = float(sl2.rotation_angles2(A, u))
    s = abs(math.sin(2.0 * math.pi * theta))
    if s <= threshold:
        raise DomainError(
            f"rotation angle too close to parabolic: |sin| = {s!r}"
        )
    return math.exp(float(sl2.hyp_dist2(u, 1j))) / s


def minimal_n(family_of_n: Callable, alpha_of_n: Callable, m: int,
              target: float, *, n_start: int = 4, n_cap: int = 1024,
              grid: int = 256) -> tuple:
    """Smallest doubling n whose stage-m residual beats the target."""
    n = n_start
    while n <= n_cap:
        ladder = NormalFormLadder(family_of_n(n), alpha_of_n(n), depth=m,
                                  grid=grid)
        res = ladder.residual(m)
        if res < target:
            return n, res
        n *= 2
    raise NormalFormBreakdownError(
        "minimal-n", f"residual target {target} unreachable below n = {n_cap}"
    )


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
