"""Shared utilities: canonical JSON, atomic file writes, quadrature nodes,
and an optional on-disk memo cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import ValidationError


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"object is not canonically serializable: {exc}")


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
