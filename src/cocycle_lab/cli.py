"""Command-line front end: descriptors, energy sweeps, deformations, checks.

One verb per pipeline procedure.  Every output file embeds the resolved
configuration and the tool version; writes are atomic (temp file plus
rename); identical invocations produce byte-identical files.  ``--jobs``
is still accepted for compatibility and has no effect: every command runs
in one thread.  OpenBLAS starts with one thread unless
``OPENBLAS_NUM_THREADS`` is set: BLAS sees at most 17 x 17 matrices here,
and a second OpenBLAS thread busy-waits from the moment numpy loads.

Exit codes: 0 success, 1 domain failure (collapse, non-elliptic energy),
2 usage failure (bad flags, unknown command, malformed descriptor).

Verb rule: ``build_parser`` declares each leaf verb once, as its options
and its ``run`` function; ``--out``, and ``--jobs`` on the spectral and
``verify`` verbs, are added in one place.  An integer option's bound is
its argparse ``type=``, so a value out of range is a usage error naming
the option.  A descriptor option parses to a ``_Desc`` (path, kinds);
``dispatch`` loads it and checks its kind in one step, runs
the verb and writes what ``run`` returns (a report, the (header, rows)
of a CSV table, or a descriptor) in one place.  The config echo is
the parsed options minus ``out``, ``jobs``, ``run`` and the sub-command
names, each loaded descriptor echoed as ``<dest>_sha1`` of its canonical
JSON.  ``verify b1`` adds the theta, lambdas and betas it draws, and the
``--ns`` of ``verify slowdecay`` echoes as its parsed list of counts.

Run functions look up library functions on their module at call time
(``cyc.band_spectrum``, ``labverify.run_lemma22``) and keep no function
object from import time: the benchmark tracer swaps module attributes,
so a reference taken earlier would hide those calls from it.

Import rule: each process runs one verb, and it compiles every module it
imports, since the bytecode cache may be off.  So this module imports at
load only what the spectral verbs need (cocycle, potentials, sl2, util);
deform, labverify, slowdeform and solenoid are imported inside the run
functions that call them, and expr only where potentials builds its nodes.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import sys

# set before numpy loads, since OpenBLAS starts its spinning thread then
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import cocycle as cyc
from . import potentials, sl2
from .errors import CocycleLabError, UsageError, ValidationError
from .potentials import (
    CirclePotential,
    ContinuumPotential,
    DiscreteFamily,
    DiscretePotential,
)
from .util import DiskMemo, atomic_write_text, canonical_json, plain, sha1_hex

# ---------------------------------------------------------------------------
# descriptor IO
# ---------------------------------------------------------------------------


def save_descriptor(obj, path: str) -> None:
    """Write the canonical JSON descriptor; round trips byte-identically."""
    atomic_write_text(path, canonical_json(obj.to_json()) + "\n")


def load_descriptor(path: str):
    """Read and validate a potential or tower descriptor.

    Accepts a JSON file path, or the name of a bundled potential when no
    such file exists.  Validation failures surface as errors naming the
    offending field.
    """
    name = str(path)
    if not os.path.exists(name):
        if name in potentials.BUNDLED:
            return potentials.bundled(name)
        raise UsageError(f"descriptor not found: {name}")
    with open(name, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise UsageError(f"malformed descriptor {name}: {exc}")
    if not isinstance(doc, dict):
        raise UsageError(f"malformed descriptor {name}: expected a JSON object")
    if doc.get("kind") == "tower":
        from . import solenoid
        return solenoid.tower_from_json(doc)
    return potentials.potential_from_json(doc)


PERIODIC = (ContinuumPotential, DiscreteFamily, DiscretePotential)


def _spectral_system(obj):
    """Monodromy-capable system for a loaded periodic potential."""
    if isinstance(obj, ContinuumPotential):
        return cyc.ContinuumCocycle(obj)
    if isinstance(obj, DiscreteFamily):
        obj = obj.slice(0.0)
    return cyc.DiscreteCocycle(obj)


def _resolve_ancestor(child, parent):
    """The stage in the child's own chain matching the parent descriptor.

    Covering-chain checks compare stages by identity, so a parent loaded
    from a separate file must be swapped for its structural twin inside
    the child's parent chain.
    """
    want = canonical_json(parent.to_json())
    node = child
    while node is not None:
        if canonical_json(node.to_json()) == want:
            return node
        node = node.parent
    raise UsageError("parent descriptor is not an ancestor stage of the child")


TOWER_STAGE = "tower stage"  # a tower, or a continuum potential's base stage

_Desc = collections.namedtuple("_Desc", "path kinds")


def _load(command: str, path: str, kinds):
    """Load a descriptor option and check that it is one of kinds, the
    potential classes or ``(TOWER_STAGE,)``."""
    obj = load_descriptor(path)
    if kinds == (TOWER_STAGE,):
        from . import solenoid
        if isinstance(obj, ContinuumPotential):
            return solenoid.base_stage(obj)
        if not isinstance(obj, solenoid.TowerStage):
            raise UsageError("tower verbs need a tower or continuum potential "
                             "descriptor")
    elif not isinstance(obj, kinds):
        raise UsageError(f"{command} requires a "
                         f"{' or '.join(k.__name__ for k in kinds)} descriptor, "
                         f"got {type(obj).__name__}")
    return obj


def _descriptor(*kinds):
    """argparse type of a descriptor path: a ``_Desc`` for ``_load``."""
    return lambda path: _Desc(path, kinds)


def _int_from(lo: int):
    """argparse type of an integer option that must be at least lo."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _counts(text: str):
    """argparse type of a comma-separated list of positive integers."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive integers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------

_VERB_DESTS = ("command", "deform_command", "tower_command", "verify_command")
_NOT_ECHOED = ("out", "jobs", "run") + _VERB_DESTS


def _fmt(x) -> str:
    """Shortest exact decimal cell: integral floats lose the trailing .0"""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _echo(args) -> dict:
    """Resolved-config echo of a run: its options without the execution
    details, each loaded descriptor as the sha1 of its canonical JSON."""
    params = {}
    for dest, value in vars(args).items():
        if dest in _NOT_ECHOED:
            continue
        if hasattr(value, "to_json"):
            params[dest + "_sha1"] = sha1_hex(canonical_json(value.to_json()))
        else:
            params[dest] = value
    return params


def _write(args, command: str, result) -> None:
    """The one writer: a descriptor (anything with a ``to_json``) as itself,
    (header, rows) as CSV cells of ``_fmt``, and any other result, a report
    dict or dataclass, as JSON by ``util.plain`` (an undefined statistic is
    null); CSV and report under the version and config echo."""
    if hasattr(result, "to_json"):
        save_descriptor(result, args.out)
        return
    config = {"command": command, "params": _echo(args)}
    if isinstance(result, tuple):
        header, rows = result
        lines = [f"# cocycle-lab {__version__} {canonical_json(config)}",
                 ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines)
    else:
        text = canonical_json({"version": __version__, "config": config,
                               "report": plain(result)})
    atomic_write_text(args.out, text + "\n")


# ---------------------------------------------------------------------------
# per-energy quantities
# ---------------------------------------------------------------------------

QUANTITIES = ("trace", "ids", "lyapunov", "density", "growth")


def _quantity_rows(system, args, energies):
    """(energy, value) rows of args.quantity over the energy grid, with no
    band scan.  Density and growth are defined strictly inside bands only,
    so other energies get no row: density's is nan there, and growth takes
    the energies with |trace| < 2 - sl2.ELLIPTIC_MARGIN.  Only growth reads
    args.samples, which only the growth and sweep verbs declare."""
    quantity = args.quantity
    if quantity == "trace":
        values = system.trace(energies)
    elif quantity == "ids":
        values = cyc.ids(system, energies)
    elif quantity == "lyapunov":
        values = cyc.lyapunov(system, energies)
    elif quantity == "density":
        values = cyc.fixed_point_density(system, energies)
        energies, values = (v[np.isfinite(values)] for v in (energies, values))
    else:
        energies = energies[np.abs(system.trace(energies))
                            < 2.0 - sl2.ELLIPTIC_MARGIN]
        values = cyc.growth_values(system, energies, samples=args.samples)[0]
    return [(float(e), float(v)) for e, v in zip(energies, values)]


# ---------------------------------------------------------------------------
# run functions, one per leaf verb
# ---------------------------------------------------------------------------


def _run_bands(args):
    system = _spectral_system(args.potential)
    if system.kind == "discrete":
        bands = cyc.discrete_band_spectrum(system, grid=args.grid,
                                           tangency_tol=args.tol)
    else:
        bands = cyc.band_spectrum(system, args.emin, args.emax, grid=args.grid,
                                  tangency_tol=args.tol)
    return ("E_lo", "E_hi"), [(b.lo, b.hi) for b in bands.bands]


def _run_quantity(args):
    system = _spectral_system(args.potential)
    energies = np.linspace(args.emin, args.emax, args.count)
    memo = DiskMemo()
    # rows from another package version or numerics engine are never served
    key = canonical_json({"table": "energy-sweep", "version": __version__,
                          "engine": cyc.ENGINE, "params": _echo(args)})
    cached = memo.get(key)
    if cached is not None:
        rows = [tuple(r) for r in cached]
    else:
        rows = _quantity_rows(system, args, energies)
        memo.put(key, [list(r) for r in rows])
    return ("E", "value"), rows


def _run_pad(args):
    from . import deform
    return deform.pad(args.infile,
                      deform.PaddingSpec(delta=args.delta, N=args.N, n=args.n))


def _run_pad_simple(args):
    from . import deform
    return deform.pad(args.infile, deform.UniformPadding(delta=args.delta,
                                                         n=args.n))


def _run_repeat(args):
    from . import deform
    return deform.repeat_family(args.infile, args.n)


def _run_twist(args):
    from . import deform
    return deform.twist_family(args.infile, args.n)


def _run_slide(args):
    from . import deform
    return deform.slide_family(args.infile, args.delta, args.n)


def _run_crumble(args):
    from . import deform
    return deform.crumble_circle(args.infile, args.n)


def _run_realize_pad(args):
    from . import deform, solenoid
    spec = deform.PaddingSpec(delta=args.delta, N=args.N, n=args.n)
    return solenoid.realize_padding(args.infile, spec, args.eps0)


def _run_realize_mix(args):
    from . import deform, solenoid
    spec = deform.UniformPadding(delta=args.delta, n=args.n)
    return solenoid.realize_padding(args.infile, spec, args.eps0)


def _run_tower_trace(args):
    from . import solenoid
    times, values = solenoid.potential_trace(args.tower, args.tmax, args.samples)
    return ("t", "V"), list(zip(times.tolist(), values.tolist()))


def _run_mixedness(args):
    from . import solenoid
    parent = _resolve_ancestor(args.child, args.parent)
    return solenoid.mixedness_check(args.child, parent, args.N,
                                    starts=args.starts,
                                    search_grid=args.search_grid)


def _run_lemma22(args):
    from . import labverify
    return labverify.run_lemma22(
        args.potential, args.M, args.xi, args.C0, args.delta, args.grid,
        P=args.P, kappa=args.kappa,
    )


def _run_asd12(args):
    from . import labverify
    return labverify.run_asd12(
        args.family, args.emin, args.emax, delta=args.delta,
        twist_pre=args.twist_pre, reps=args.reps, slide_n=args.slide_n,
        twist_post=args.twist_post, energy_grid=args.grid,
        t_points=args.tpoints, C0=args.C0,
    )


def _run_parseval(args):
    from . import labverify
    mats = labverify.random_polar_matrices(args.n, args.lam_max, args.seed)
    return labverify.carleson_parseval(mats, grid=args.grid)


def _run_b1(args):
    """Draws lambdas, betas and (unless given) theta from the seed, into
    args so that the echo records them."""
    from . import labverify
    rng = np.random.Generator(np.random.Philox(args.seed))
    args.lambdas = (args.lam_max * rng.random(args.n)).tolist()
    args.betas = rng.random(args.n).tolist()
    if args.theta is None:
        args.theta = float(rng.random())
    return labverify.carleson_b1(args.lambdas, args.betas, args.theta, args.s,
                                 n=args.n)


def _run_spectral_parseval(args):
    system = _spectral_system(args.potential)
    bandset = cyc.discrete_band_spectrum(system)
    integrals = [float(cyc.band_norm_integral(system, band, args.n,
                                              order=args.band_order))
                 for band in bandset.bands]
    return {
        "kind": "spectral-parseval-report",
        "n": args.n,
        "parseval": float(cyc.spectral_parseval(system, bandset, args.n,
                                                order=args.order)),
        "band_integrals": integrals,
        "max_band_integral": max(integrals),
        "bands": len(bandset),
    }


def _run_slowdecay(args):
    from . import slowdeform
    fam = slowdeform.shear_rotation_family(args.theta0, args.wobble, args.shear)
    rows = slowdeform.decay_table(lambda n: fam, lambda n: args.alpha / n,
                                  args.ns, args.depth, grid=args.grid)
    header = ("m", "n", "residual", "B_drift", "theta_drift")
    return header, [tuple(r[k] for k in header) for r in rows]


def _run_uniform(args):
    system = cyc.ContinuumCocycle(args.potential)
    bandset = cyc.band_spectrum(system, args.emin, args.emax, grid=args.grid)
    return cyc.uniformness_check(system, bandset, args.level, scan=args.scan,
                                 order=args.order,
                                 t_samples=args.tsamples)


def _run_crooked(args):
    from . import labverify
    return labverify.crooked_metric(
        args.potential, args.eps1, args.C1, args.M, per_band=args.per_band,
        t_samples=args.tsamples, basepoints=args.basepoints,
    )


def _run_good_nice(args):
    from . import labverify
    return labverify.good_nice_metrics(args.potential, args.eps, args.M,
                                       per_band=args.per_band)


def _run_wj_model(args):
    from . import labverify
    spec = labverify.RandomModelSpec(
        delta=args.delta, R=args.R, cprime=args.cprime,
        P=args.P, trials=args.trials, seed=args.seed,
    )
    return labverify.wj_model(spec, C0=args.C0, bins=args.bins)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_range(p):
    p.add_argument("--emin", type=float, default=-4.0)
    p.add_argument("--emax", type=float, default=12.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="Periodic cocycle laboratory: spectra, deformations, "
                    "towers, and quantitative growth checks.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cocycle-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []  # (parser, whether it takes the no-op --jobs)

    def leaf(subparsers, name, run, jobs=False, **kw):
        p = subparsers.add_parser(name, **kw)
        p.set_defaults(run=run)
        leaves.append((p, jobs))
        return p

    def group(name, help):
        p = sub.add_parser(name, help=help)
        return p.add_subparsers(dest=f"{name}_command", required=True)

    p = leaf(sub, "bands", _run_bands, help="band spectrum as CSV intervals")
    p.add_argument("--potential", required=True, type=_descriptor(*PERIODIC))
    _add_range(p)
    p.add_argument("--grid", type=int, default=4096,
                   help="trace-scan resolution for band detection; the "
                        "oscillation count finds what it misses")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="a gap the scan misses is a touching point unless "
                        "|trace| exceeds 2 by more than this at its Dirichlet "
                        "eigenvalue")

    for name, blurb in (
        ("ids", "integrated density of states on an energy grid"),
        ("lyapunov", "Lyapunov exponent on an energy grid"),
        ("density", "density of states inside bands"),
        ("growth", "transfer-norm growth functional inside bands"),
        ("sweep", "per-energy quantity sweep (cacheable)"),
    ):
        p = leaf(sub, name, _run_quantity, jobs=True, help=blurb)
        p.add_argument("--potential", required=True, type=_descriptor(*PERIODIC))
        if name == "sweep":
            p.add_argument("--quantity", required=True, choices=QUANTITIES)
        else:
            p.set_defaults(quantity=name)
        _add_range(p)
        p.add_argument("--count", type=_int_from(0), default=512,
                       help="number of energy samples")
        if name in ("growth", "sweep"):
            p.add_argument("--samples", type=_int_from(1), default=2048,
                           help="time samples for the growth functional")

    dsub = group("deform", "potential deformation operators")
    for verb, run, kind in (
        ("pad", _run_pad, ContinuumPotential),
        ("pad-simple", _run_pad_simple, ContinuumPotential),
        ("repeat", _run_repeat, DiscreteFamily),
        ("twist", _run_twist, DiscreteFamily),
        ("slide", _run_slide, DiscreteFamily),
        ("crumble", _run_crumble, CirclePotential),
    ):
        q = leaf(dsub, verb, run)
        q.add_argument("--in", dest="infile", required=True,
                       type=_descriptor(kind))
        if verb in ("pad", "pad-simple", "slide"):
            q.add_argument("--delta", type=float, required=True)
        if verb == "pad":
            q.add_argument("--N", type=int, required=True)
        q.add_argument("--n", type=int, required=True)

    tsub = group("tower", "solenoid tower stages")
    for verb, run in (("realize-pad", _run_realize_pad),
                      ("realize-mix", _run_realize_mix)):
        q = leaf(tsub, verb, run)
        q.add_argument("--in", dest="infile", required=True,
                       type=_descriptor(TOWER_STAGE))
        q.add_argument("--delta", type=float, required=True)
        if verb == "realize-pad":
            q.add_argument("--N", type=int, required=True)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--eps0", type=float, required=True)
    q = leaf(tsub, "trace", _run_tower_trace)
    q.add_argument("--in", dest="tower", required=True,
                   type=_descriptor(TOWER_STAGE))
    q.add_argument("--tmax", type=float, required=True)
    q.add_argument("--samples", type=int, default=1024)
    q = leaf(tsub, "mixedness", _run_mixedness)
    q.add_argument("--child", required=True, type=_descriptor(TOWER_STAGE))
    q.add_argument("--parent", required=True, type=_descriptor(TOWER_STAGE))
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--starts", type=_int_from(1), default=1024)
    q.add_argument("--search-grid", type=_int_from(0), default=0)

    vsub = group("verify", "quantitative pipeline checks")

    q = leaf(vsub, "lemma22", _run_lemma22, jobs=True)
    q.add_argument("--potential", required=True,
                   type=_descriptor(ContinuumPotential))
    q.add_argument("--M", type=float, default=6.0)
    q.add_argument("--xi", type=float, default=0.2)
    q.add_argument("--C0", type=float, default=4.0)
    q.add_argument("--delta", type=float, default=0.05)
    q.add_argument("--grid", type=_int_from(1), default=2000)
    q.add_argument("--P", type=_int_from(1), default=None)
    q.add_argument("--kappa", type=float, default=1e-3)

    q = leaf(vsub, "asd12", _run_asd12, jobs=True)
    q.add_argument("--family", required=True, type=_descriptor(DiscreteFamily))
    q.add_argument("--emin", type=float, required=True)
    q.add_argument("--emax", type=float, required=True)
    q.add_argument("--delta", type=float, default=0.05)
    q.add_argument("--twist-pre", type=int, default=3)
    q.add_argument("--reps", type=int, default=6)
    q.add_argument("--slide-n", type=int, default=4)
    q.add_argument("--twist-post", type=int, default=3)
    q.add_argument("--grid", type=_int_from(1), default=200)
    q.add_argument("--tpoints", type=_int_from(2), default=24)
    q.add_argument("--C0", type=float, default=4.0)

    q = leaf(vsub, "parseval", _run_parseval, jobs=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=_int_from(0), required=True)
    q.add_argument("--grid", type=_int_from(1), default=2 ** 14)
    q.add_argument("--lam-max", type=float, default=0.3)

    q = leaf(vsub, "b1", _run_b1, jobs=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=_int_from(0), required=True)
    q.add_argument("--theta", type=float, default=None,
                   help="rotation step; drawn from the seed when omitted")
    q.add_argument("--s", type=float, default=1e-3)
    q.add_argument("--lam-max", type=float, default=0.3)

    q = leaf(vsub, "spectral-parseval", _run_spectral_parseval, jobs=True)
    q.add_argument("--potential", required=True,
                   type=_descriptor(DiscreteFamily, DiscretePotential))
    q.add_argument("--n", type=int, default=0,
                   help="spectral truncation index")
    q.add_argument("--order", type=_int_from(1), default=48)
    q.add_argument("--band-order", type=_int_from(1), default=64)

    q = leaf(vsub, "slowdecay", _run_slowdecay, jobs=True)
    q.add_argument("--theta0", type=float, default=0.17)
    q.add_argument("--wobble", type=float, default=0.05)
    q.add_argument("--shear", type=float, default=0.1)
    q.add_argument("--alpha", type=float, default=1.0,
                   help="deformation size scale; per-stage size is alpha/n")
    q.add_argument("--depth", type=int, default=3)
    q.add_argument("--ns", type=_counts, default="16,32,64,128,256",
                   help="comma-separated list of stage counts")
    q.add_argument("--grid", type=int, default=256)

    q = leaf(vsub, "uniform", _run_uniform, jobs=True)
    q.add_argument("--potential", required=True,
                   type=_descriptor(ContinuumPotential))
    q.add_argument("--level", type=float, required=True)
    _add_range(q)
    q.add_argument("--grid", type=int, default=4096)
    q.add_argument("--scan", type=_int_from(1), default=33)
    q.add_argument("--order", type=_int_from(1), default=24)
    q.add_argument("--tsamples", type=_int_from(1), default=512)

    q = leaf(vsub, "crooked", _run_crooked, jobs=True)
    q.add_argument("--potential", required=True,
                   type=_descriptor(ContinuumPotential))
    q.add_argument("--eps1", type=float, required=True)
    q.add_argument("--C1", type=float, required=True)
    q.add_argument("--M", type=float, required=True)
    q.add_argument("--per-band", type=_int_from(1), default=48)
    q.add_argument("--tsamples", type=_int_from(1), default=256)
    q.add_argument("--basepoints", type=_int_from(1), default=32)

    blurb = ("sup_L and |IDS(M) - integral of the density over the bands "
             "clipped at M|, on the edge-regularized band quadrature")
    q = leaf(vsub, "good-nice", _run_good_nice, jobs=True, help=blurb,
             description=blurb)
    q.add_argument("--potential", required=True, type=_descriptor(*PERIODIC))
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--M", type=float, required=True)
    q.add_argument("--per-band", type=_int_from(1), default=32)

    q = leaf(vsub, "wj-model", _run_wj_model, jobs=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--R", type=float, required=True)
    q.add_argument("--cprime", type=float, required=True)
    q.add_argument("--P", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=_int_from(0), required=True)
    q.add_argument("--C0", type=float, default=2.0)
    q.add_argument("--bins", type=_int_from(1), default=40)

    for p, jobs in leaves:
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted for compatibility; has no effect")
        p.add_argument("--out", required=True, help="output file path")
    return parser


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def dispatch(argv) -> int:
    """Run one sub-command: load its descriptors, run it, write its output.
    Failures are reported as a one-line diagnosis."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a bad flag
        return 0 if exc.code == 0 else 2
    try:
        names = vars(args)
        command = " ".join(names[d] for d in _VERB_DESTS if d in names)
        for dest, value in list(names.items()):
            if isinstance(value, _Desc):
                names[dest] = _load(command, *value)
        _write(args, command, args.run(args))
        return 0
    except CocycleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UsageError, ValidationError)) else 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
