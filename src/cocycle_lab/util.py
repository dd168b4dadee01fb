"""Shared utilities: canonical JSON, the report encoder, atomic writes,
quadrature nodes, a lockstep root finder and an optional on-disk memo cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import ResolutionError, ValidationError


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"object is not canonically serializable: {exc}")


def plain(obj):
    """A report as JSON values, the one encoder of every report.

    A dataclass becomes its ``kind`` (when it has one, as ``expr.Node``
    writes it) followed by its fields; dicts are converted value by value;
    tuples, lists and arrays become lists; numpy scalars become Python
    scalars.  Null means undefined: every non-finite float becomes None,
    so a statistic over an empty set is written as null.  It checks
    nothing: a report's ``validate()`` still checks its invariants.
    """
    if dataclasses.is_dataclass(obj):
        head = {"kind": obj.kind} if hasattr(obj, "kind") else {}
        return {**head, **{f.name: plain(getattr(obj, f.name))
                           for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def sha1_hex(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def gauss_nodes(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


_RTOL = 4.0 * np.finfo(float).eps


def brentq(f, a, b, *, xtol: float = 2e-12, rtol: float = _RTOL,
           maxiter: int = 100, fa=None, fb=None):
    """Roots of K functions in their brackets [a_k, b_k], solved in lockstep.

    ``f(x, lanes)`` returns f_k(x_i) for k = lanes[i]; ``x`` and ``lanes``
    are 1-d and hold only the brackets still running, so each iteration
    makes one call for all of them.  ``fa`` and ``fb``, when given, are
    the known values at the bracket ends and save the first call.

    Each lane runs exactly the iteration of scipy's ``brentq`` (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4; the
    inverse-quadratic/secant step with bisection fallback of scipy's
    ``brentq.c``) with the same meaning of ``xtol``, ``rtol`` and
    ``maxiter``, so every root is bit for bit the one scipy returns for
    the same scalar function.  A zero at an end returns that end.  Ends
    whose values have the same sign, a NaN value, or a lane that has not
    converged after ``maxiter`` evaluations raise ``ResolutionError``.
    Returns a float array of the broadcast shape of ``a`` and ``b``.
    """
    if not xtol > 0.0 or not rtol >= _RTOL:
        raise ValidationError(f"need xtol > 0 and rtol >= {_RTOL!r}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape = a.shape
    xpre = a.ravel().copy()
    xcur = b.ravel().copy()
    K = xpre.size
    root = np.empty(K)
    if K == 0:
        return root.reshape(shape)
    lanes = np.arange(K)
    if fa is None and fb is None:
        both = _values(f, np.concatenate([xpre, xcur]),
                       np.concatenate([lanes, lanes]))
        fpre, fcur = both[:K], both[K:]
    else:
        fpre = _values(f, xpre, lanes) if fa is None else _given(fa, xpre)
        fcur = _values(f, xcur, lanes) if fb is None else _given(fb, xcur)

    at_a = fpre == 0.0
    at_b = (fcur == 0.0) & ~at_a
    root[at_a] = xpre[at_a]
    root[at_b] = xcur[at_b]
    run = ~(at_a | at_b)
    if not run.any():
        return root.reshape(shape)
    same = run & (np.signbit(fpre) == np.signbit(fcur))
    if same.any():
        k = int(np.flatnonzero(same)[0])
        raise ResolutionError(
            f"root bracket [{float(xpre[k])!r}, {float(xcur[k])!r}] does not "
            f"change sign (f = {float(fpre[k])!r}, {float(fcur[k])!r})")
    lanes = lanes[run]
    xpre, xcur, fpre, fcur = xpre[run], xcur[run], fpre[run], fcur[run]
    xblk = np.zeros_like(xpre)
    fblk = np.zeros_like(xpre)
    spre = np.zeros_like(xpre)
    scur = np.zeros_like(xpre)
    for _ in range(maxiter):
        # a sign change between the last two iterates makes xpre the
        # contrapoint
        new = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(new, xpre, xblk)
        fblk = np.where(new, fpre, fblk)
        spre = np.where(new, xcur - xpre, spre)
        scur = np.where(new, xcur - xpre, scur)
        # keep the smaller function value in xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        root[lanes[done]] = xcur[done]
        if done.all():
            return root.reshape(shape)
        if done.any():
            keep = ~done
            lanes = lanes[keep]
            xpre, xcur, xblk = xpre[keep], xcur[keep], xblk[keep]
            fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
            spre, scur = spre[keep], scur[keep]
            delta, sbis = delta[keep], sbis[keep]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = (-fcur * (fblk * dblk - fpre * dpre)
                           / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        limit = 3.0 * np.abs(sbis) - delta
        limit = np.where(np.abs(spre) < limit, np.abs(spre), limit)
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2.0 * np.abs(stry) < limit))
        spre = np.where(good, scur, sbis)
        scur = np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0.0, delta, -delta))
        fcur = _values(f, xcur, lanes)
    raise ResolutionError(
        f"root solve did not converge in {maxiter} iterations "
        f"({lanes.size} of {K} brackets, e.g. near {float(xcur[0])!r})")


def _values(f, x, lanes):
    return _given(f(x, lanes), x)


def _given(fx, x):
    """Function values as a float array like x; a NaN stops the solve."""
    fx = np.array(np.broadcast_to(np.asarray(fx, dtype=float), x.shape))
    nan = np.flatnonzero(np.isnan(fx))
    if nan.size:
        raise ResolutionError(
            f"root solve met a NaN value at x = {float(x[nan[0]])!r}")
    return fx


class DiskMemo:
    """Tiny content-addressed JSON memo under a directory.

    Activated by pipelines when the COCYCLE_LAB_CACHE environment
    variable names a directory; silently inert otherwise.
    """

    def __init__(self, root=None):
        self.root = root or os.environ.get("COCYCLE_LAB_CACHE") or None
        if self.root:
            os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, sha1_hex(key) + ".json")

    def get(self, key: str):
        if not self.root:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key: str, value) -> None:
        if not self.root:
            return
        atomic_write_text(self._path(key), canonical_json(value))
