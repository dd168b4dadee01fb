"""Per-layer tracing by wrapping ``cocycle_lab``'s public functions.

``install()`` replaces module attributes and class methods of the package
with timing wrappers, in the package modules already loaded and in any loaded
later (a lazy import is traced too); nothing in the package source changes.  Every wrapped
call becomes one span (layer, start, end, parent).  Spans stay in memory;
``Tracer.write_spans`` writes them out when the run ends.  Self time of a
span is its duration minus the durations of its direct child spans.

Counters (calls, stack elements, energies, ODE right-hand-side evaluations,
memo hits, bytes written) depend only on the inputs, so they repeat exactly
between two traced runs with the same seed.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cocycle.ode", "expr", "cocycle.propagate", "cocycle.spectral",
          "sl2", "labverify", "deform", "solenoid", "slowdeform", "util",
          "cli")

PROPAGATE_METHODS = ("monodromy", "prefix", "prefix_grid", "transfer",
                     "trace", "trace_derivative")
SPECTRAL_FUNCTIONS = ("band_spectrum", "ids", "density", "lyapunov",
                      "growth_value", "spectral_parseval", "band_norm_integral")


class Tracer:
    """Span stack, per-layer self time and counters for one process.

    Finished spans go into flat arrays, which the garbage collector does
    not scan, so a long traced round does not slow down as spans pile up.
    """

    def __init__(self):
        self.active = False
        self.parent = array("q")
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = []  # [span id, layer index, start, child time]
        self._ids = array("q")
        self._self = [0.0] * len(LAYERS)
        self._calls = [0] * len(LAYERS)
        self.counts = {}
        self.expr_depth = 0
        self.propagate_depth = 0
        self.spectral_depth = 0
        self.band_scan_depth = 0

    def __len__(self):
        return len(self.start)

    @property
    def self_s(self):
        return dict(zip(LAYERS, self._self))

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def enter(self, layer):
        """Open a span; ``layer`` is an index into LAYERS."""
        self._stack.append([len(self.start) + len(self._stack), layer,
                            time.perf_counter(), 0.0])

    def leave(self):
        end = time.perf_counter()
        sid, layer, start, child = self._stack.pop()
        dur = end - start
        self._self[layer] += dur - child
        self._calls[layer] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        # spans are stored in the order they close; ids are start order
        self.parent.append(parent)
        self.layer.append(layer)
        self.start.append(start)
        self.end.append(end)
        self._ids.append(sid)

    def summary(self):
        """Counters and per-layer self time, calls included as counters."""
        counts = dict(self.counts)
        for name, n in zip(LAYERS, self._calls):
            if n:
                counts[name + ".calls"] = counts.get(name + ".calls", 0) + n
        return counts, self.self_s

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,start_s,end_s\n")
            for sid, parent, layer, start, end in zip(
                    self._ids, self.parent, self.layer, self.start, self.end):
                fh.write(f"{sid},{parent},{LAYERS[layer]},{start!r},{end!r}\n")


TRACER = Tracer()


def _stack_elements(x):
    """Matrices in a (..., 2, 2) stack, points in a point array, else 1."""
    if isinstance(x, np.ndarray):
        if x.ndim >= 2 and x.shape[-2:] == (2, 2):
            return x.size // 4
        return max(x.size, 1)
    return 1


def _wrap(fn, layer, before=None, after=None):
    """Timing wrapper; ``before(args)`` and ``after(args, result)`` count work."""
    layer = LAYERS.index(layer)

    def wrapper(*args, **kwargs):
        tr = TRACER
        if not tr.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(tr, args, kwargs)
        tr.enter(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.leave()
        if after is not None:
            after(tr, args, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _nested(fn, layer, attr):
    """Wrapper that tracks its own nesting depth in ``Tracer.<attr>``."""
    inner = _wrap(fn, layer)

    def wrapper(*args, **kwargs):
        tr = TRACER
        setattr(tr, attr, getattr(tr, attr) + 1)
        try:
            return inner(*args, **kwargs)
        finally:
            setattr(tr, attr, getattr(tr, attr) - 1)

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# per-layer wrappers
# ---------------------------------------------------------------------------


def _ode_after(tr, args, sol):
    tr.add("cocycle.ode.rhs_evals", int(sol.nfev))


def _sl2_before(tr, args, kwargs):
    tr.add("sl2.matrices", _stack_elements(args[0]) if args else 1)


def _expr_wrapper(fn):
    """Top-level expression evaluations only; nested nodes run unwrapped."""
    inner = _wrap(fn, "expr")

    def wrapper(self, *args, **kwargs):
        tr = TRACER
        if not tr.active or tr.expr_depth:
            return fn(self, *args, **kwargs)
        tr.add("expr.points", max((np.size(a) for a in args), default=1))
        tr.expr_depth += 1
        try:
            return inner(self, *args, **kwargs)
        finally:
            tr.expr_depth -= 1

    wrapper.__wrapped__ = fn
    return wrapper


def _propagate_wrapper(fn, energy_arg, is_trace):
    """Counts energies at the outermost propagate call, and trace
    evaluations requested by the spectral layer."""
    inner = _wrap(fn, "cocycle.propagate")

    def wrapper(*args, **kwargs):
        tr = TRACER
        if not tr.active:
            return fn(*args, **kwargs)
        if tr.propagate_depth == 0:
            k = int(np.size(args[energy_arg]))
            tr.add("cocycle.propagate.energies", k)
            if is_trace and tr.spectral_depth:
                tr.add("cocycle.spectral.trace_evals", k)
                if tr.band_scan_depth:
                    tr.add("cocycle.spectral.band_scan_trace_evals", k)
        tr.propagate_depth += 1
        try:
            return inner(*args, **kwargs)
        finally:
            tr.propagate_depth -= 1

    wrapper.__wrapped__ = fn
    return wrapper


def _band_spectrum_wrapper(fn):
    """Also marks the band scan, so trace evaluations per band can be told
    apart from the other spectral functions' evaluations."""
    inner = _nested(fn, "cocycle.spectral", "spectral_depth")

    def wrapper(*args, **kwargs):
        tr = TRACER
        tr.band_scan_depth += 1
        try:
            out = inner(*args, **kwargs)
        finally:
            tr.band_scan_depth -= 1
        if tr.active:
            tr.add("cocycle.spectral.bands", len(out))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _memo_get_after(tr, args, out):
    memo = args[0]
    if memo.root:
        tr.add("util.memo_hits" if out is not None else "util.memo_misses", 1)


def _write_before(tr, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.add("util.bytes_written", len(text.encode("utf-8")))


def _public_functions(module):
    return [name for name, val in vars(module).items()
            if inspect.isfunction(val) and not name.startswith("_")
            and val.__module__ == module.__name__]


PACKAGE = "cocycle_lab"
_SWAPS = {}  # id(original) -> (original, wrapper)


def _swap(original, wrapper):
    """Register ``wrapper`` to replace ``original`` in every package module."""
    _SWAPS[id(original)] = (original, wrapper)


def _wrap_cocycle(cyc):
    _swap(cyc.solve_ivp, _wrap(cyc.solve_ivp, "cocycle.ode", after=_ode_after))
    for cls in (cyc.ContinuumCocycle, cyc.DiscreteCocycle):
        for meth in PROPAGATE_METHODS:
            fn = vars(cls)[meth]
            setattr(cls, meth, _propagate_wrapper(
                fn, 1, meth in ("trace", "trace_derivative")))
    for name in ("free_block", "step_matrices"):
        fn = getattr(cyc, name)
        _swap(fn, _propagate_wrapper(fn, 0, False))
    for name in SPECTRAL_FUNCTIONS:
        fn = getattr(cyc, name)
        _swap(fn, _band_spectrum_wrapper(fn) if name == "band_spectrum"
              else _nested(fn, "cocycle.spectral", "spectral_depth"))


def _wrap_sl2(mod):
    for name in _public_functions(mod):
        fn = getattr(mod, name)
        _swap(fn, _wrap(fn, "sl2", before=_sl2_before))


def _wrap_expr(expr):
    for cls in vars(expr).values():
        if inspect.isclass(cls) and cls.__module__ == expr.__name__ \
                and "__call__" in vars(cls):
            cls.__call__ = _expr_wrapper(vars(cls)["__call__"])


def _wrap_public(layer):
    def build(mod):
        for name in _public_functions(mod):
            fn = getattr(mod, name)
            _swap(fn, _wrap(fn, layer))
    return build


def _wrap_util(util):
    util.DiskMemo.get = _wrap(util.DiskMemo.get, "util", after=_memo_get_after)
    util.DiskMemo.put = _wrap(util.DiskMemo.put, "util")
    _swap(util.atomic_write_text,
          _wrap(util.atomic_write_text, "util", before=_write_before))


_BUILDERS = {
    "cocycle": _wrap_cocycle,
    "sl2": _wrap_sl2,
    "expr": _wrap_expr,
    "labverify": _wrap_public("labverify"),
    "deform": _wrap_public("deform"),
    "solenoid": _wrap_public("solenoid"),
    "slowdeform": _wrap_public("slowdeform"),
    "util": _wrap_util,
}


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n.startswith(PACKAGE + ".") and m is not None]


def _instrument(mods):
    """Wrap the layer entry points of ``mods``, then put every registered
    wrapper in place of its original in all loaded package modules."""
    for mod in mods:
        build = _BUILDERS.get(mod.__name__.rpartition(".")[2])
        if build is not None:
            build(mod)
    for mod in _package_modules():
        for name, val in list(vars(mod).items()):
            hit = _SWAPS.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, name, hit[1])


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Instruments a package module imported after ``install()`` as soon
    as it has loaded, so a lazy import inside the package is traced too."""

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def run(module):
            exec_module(module)
            _instrument([module])

        spec.loader.exec_module = run
        return spec


def install():
    """Wrap the layer entry points of the package modules loaded so far,
    and of any package module loaded later.

    Importing nothing itself, it adds no import time to what it measures.
    """
    _instrument(_package_modules())
    sys.meta_path.insert(0, _PostImportHook())


def per_call_overhead(calls=20000):
    """Seconds one active wrapper adds to a call, measured on a no-op."""
    global TRACER

    def noop(x):
        return x

    wrapped = _wrap(noop, "util")
    real, TRACER = TRACER, Tracer()
    TRACER.active = True
    try:
        t0 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t1 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t2 = time.perf_counter()
    finally:
        TRACER = real
    return max(((t1 - t0) - (t2 - t1)) / calls, 0.0)
