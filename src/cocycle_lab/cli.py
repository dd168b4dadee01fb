"""Command-line front end: descriptors, energy sweeps, deformations, checks.

One verb per pipeline procedure.  Every output file embeds the resolved
configuration and the tool version; writes are atomic (temp file plus
rename); identical invocations produce byte-identical files.  ``--jobs``
is still accepted for compatibility and has no effect: every command runs
in one thread.

Exit codes: 0 success, 1 domain failure (collapse, non-elliptic energy),
2 usage failure (bad flags, unknown command, malformed descriptor).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import cocycle as cyc
from . import deform, labverify, potentials, slowdeform, solenoid
from .errors import CocycleLabError, UsageError, ValidationError
from .potentials import (
    CirclePotential,
    ContinuumPotential,
    DiscreteFamily,
    DiscretePotential,
)
from .solenoid import TowerStage
from .util import DiskMemo, atomic_write_text, canonical_json, sha1_hex

# ---------------------------------------------------------------------------
# descriptor IO
# ---------------------------------------------------------------------------


def descriptor_json(obj) -> dict:
    """Descriptor dict for any potential-like object or tower stage."""
    if isinstance(obj, TowerStage):
        return solenoid.tower_to_json(obj)
    return obj.to_json()


def save_descriptor(obj, path: str) -> None:
    """Write the canonical JSON descriptor; round trips byte-identically."""
    atomic_write_text(path, canonical_json(descriptor_json(obj)) + "\n")


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
        return solenoid.tower_from_json(doc)
    return potentials.potential_from_json(doc)


def _descriptor_sha1(obj) -> str:
    return sha1_hex(canonical_json(descriptor_json(obj)))


def _spectral_system(obj):
    """Monodromy-capable system for a loaded descriptor."""
    if isinstance(obj, ContinuumPotential):
        return cyc.ContinuumCocycle(obj)
    if isinstance(obj, DiscreteFamily):
        return cyc.DiscreteCocycle(obj.slice(0.0))
    if isinstance(obj, DiscretePotential):
        return cyc.DiscreteCocycle(obj)
    raise UsageError(
        "descriptor does not define a periodic spectral system; "
        "expected a continuum or discrete potential"
    )


def _require(obj, kinds, what: str):
    if not isinstance(obj, kinds):
        raise UsageError(f"{what} requires a {_kind_names(kinds)} descriptor, "
                         f"got {type(obj).__name__}")
    return obj


def _kind_names(kinds) -> str:
    if not isinstance(kinds, tuple):
        kinds = (kinds,)
    return " or ".join(k.__name__ for k in kinds)


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


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


def _config_doc(command: str, params: dict) -> dict:
    """Resolved-config echo embedded in every output.

    The ``--jobs`` value and the output path are execution details, not
    semantics, so they are deliberately absent.
    """
    return {"command": command, "params": params}


def _write_report(path: str, command: str, params: dict, report) -> None:
    doc = {
        "version": __version__,
        "config": _config_doc(command, params),
        "report": report,
    }
    atomic_write_text(path, canonical_json(doc) + "\n")


def _write_csv(path: str, command: str, params: dict, header, rows) -> None:
    lines = [
        f"# cocycle-lab {__version__} "
        f"{canonical_json(_config_doc(command, params))}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# per-energy quantities
# ---------------------------------------------------------------------------

QUANTITIES = ("trace", "ids", "lyapunov", "density", "growth")


def _bands_for(system, e_min: float, e_max: float, grid: int, tol: float):
    if system.kind == "discrete":
        return cyc.discrete_band_spectrum(system, grid=grid, tangency_tol=tol)
    return cyc.band_spectrum(system, e_min, e_max, grid=grid, tangency_tol=tol)


def _quantity_rows(system, bandset, quantity, energies, samples):
    """(energy, value) rows over the energy grid.  Density and growth are
    defined strictly inside bands only, so other energies get no row.
    Every quantity but growth is one call on the whole grid."""
    if quantity == "trace":
        values = system.trace(energies)
    elif quantity == "ids":
        values = cyc.ids(system, energies, bandset)
    elif quantity == "lyapunov":
        values = cyc.lyapunov(system, energies)
    else:
        lo = np.array([b.lo for b in bandset.bands])
        hi = np.array([b.hi for b in bandset.bands])
        inside = ((lo < energies[:, None]) & (energies[:, None] < hi)).any(axis=1)
        energies = energies[inside]
        if not energies.size:
            values = []
        elif quantity == "density":
            values = cyc.fixed_point_density(system, energies)
            # an energy on a band edge to rounding (where the scanned edge
            # and the trace disagree) has a divergent density: no row
            energies, values = (v[np.isfinite(values)] for v in (energies, values))
        else:
            values = [cyc.growth_value(system, float(e), samples=samples).value
                      for e in energies]
    return [(float(e), float(v)) for e, v in zip(energies, values)]


def _sweep_cache_key(params: dict) -> str:
    """Memo key of a sweep table: rows from another package version or
    numerics engine are never served."""
    return canonical_json({"table": "energy-sweep", "version": __version__,
                           "engine": cyc.ENGINE, "params": params})


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_bands(args) -> None:
    pot = load_descriptor(args.potential)
    system = _spectral_system(pot)
    bands = _bands_for(system, args.emin, args.emax, args.grid, args.tol)
    params = {
        "potential_sha1": _descriptor_sha1(pot),
        "emin": args.emin,
        "emax": args.emax,
        "grid": args.grid,
        "tol": args.tol,
    }
    rows = [(b.lo, b.hi) for b in bands.bands]
    _write_csv(args.out, "bands", params, ("E_lo", "E_hi"), rows)


def _cmd_quantity(args) -> None:
    quantity = args.quantity if args.command == "sweep" else args.command
    if quantity not in QUANTITIES:
        raise UsageError(f"unknown quantity {quantity!r}; "
                         f"choices: {', '.join(QUANTITIES)}")
    pot = load_descriptor(args.potential)
    system = _spectral_system(pot)
    bandset = _bands_for(system, args.emin, args.emax, args.grid, args.tol)
    params = {
        "potential_sha1": _descriptor_sha1(pot),
        "quantity": quantity,
        "emin": args.emin,
        "emax": args.emax,
        "count": args.count,
        "grid": args.grid,
        "tol": args.tol,
        "samples": args.samples,
    }
    energies = np.linspace(args.emin, args.emax, args.count)
    memo = DiskMemo()
    key = _sweep_cache_key(params)
    cached = memo.get(key)
    if cached is not None:
        rows = [tuple(r) for r in cached]
    else:
        rows = _quantity_rows(system, bandset, quantity, energies,
                              args.samples)
        memo.put(key, [list(r) for r in rows])
    _write_csv(args.out, args.command, params, ("E", "value"), rows)


def _cmd_deform(args) -> None:
    obj = load_descriptor(args.infile)
    verb = args.deform_command
    if verb == "pad":
        pot = _require(obj, ContinuumPotential, "deform pad")
        spec = deform.PaddingSpec(delta=args.delta, N=args.N, n=args.n)
        out = deform.pad(pot, spec)
        params = {"delta": args.delta, "N": args.N, "n": args.n}
    elif verb == "pad-simple":
        pot = _require(obj, ContinuumPotential, "deform pad-simple")
        out = deform.pad_simple(pot, args.delta, args.n)
        params = {"delta": args.delta, "n": args.n}
    elif verb == "repeat":
        fam = _require(obj, DiscreteFamily, "deform repeat")
        out = deform.repeat_family(fam, args.n)
        params = {"n": args.n}
    elif verb == "twist":
        fam = _require(obj, DiscreteFamily, "deform twist")
        out = deform.twist_family(fam, args.n)
        params = {"n": args.n}
    elif verb == "slide":
        fam = _require(obj, DiscreteFamily, "deform slide")
        out = deform.slide_family(fam, args.delta, args.n)
        params = {"delta": args.delta, "n": args.n}
    elif verb == "crumble":
        circ = _require(obj, CirclePotential, "deform crumble")
        out = deform.crumble_circle(circ, args.n)
        params = {"n": args.n}
    else:
        raise UsageError(f"unknown deform verb {verb!r}")
    save_descriptor(out, args.out)


def _stage_of(obj) -> TowerStage:
    if isinstance(obj, TowerStage):
        return obj
    if isinstance(obj, ContinuumPotential):
        return solenoid.base_stage(obj)
    raise UsageError("tower verbs need a tower or continuum potential descriptor")


def _resolve_ancestor(child: TowerStage, parent: TowerStage) -> TowerStage:
    """The stage in the child's own chain matching the parent descriptor.

    Covering-chain checks compare stages by identity, so a parent loaded
    from a separate file must be swapped for its structural twin inside
    the child's parent chain.
    """
    want = canonical_json(solenoid.tower_to_json(parent))
    node = child
    while node is not None:
        if canonical_json(solenoid.tower_to_json(node)) == want:
            return node
        node = node.parent
    raise UsageError("parent descriptor is not an ancestor stage of the child")


def _cmd_tower(args) -> None:
    verb = args.tower_command
    if verb == "realize-pad":
        stage = _stage_of(load_descriptor(args.infile))
        spec = deform.PaddingSpec(delta=args.delta, N=args.N, n=args.n)
        out = solenoid.realize_padding(stage, spec, args.eps0)
        save_descriptor(out, args.out)
    elif verb == "realize-mix":
        stage = _stage_of(load_descriptor(args.infile))
        out = solenoid.realize_mixing(stage, args.delta, args.n, args.eps0)
        save_descriptor(out, args.out)
    elif verb == "trace":
        stage = _stage_of(load_descriptor(args.infile))
        params = {
            "tower_sha1": _descriptor_sha1(stage),
            "tmax": args.tmax,
            "samples": args.samples,
        }
        times, values = solenoid.potential_trace(stage, args.tmax, args.samples)
        rows = list(zip(times.tolist(), values.tolist()))
        _write_csv(args.out, "tower trace", params, ("t", "V"), rows)
    elif verb == "mixedness":
        child = _stage_of(load_descriptor(args.child))
        parent = _resolve_ancestor(child, _stage_of(load_descriptor(args.parent)))
        params = {
            "child_sha1": _descriptor_sha1(child),
            "parent_sha1": _descriptor_sha1(parent),
            "N": args.N,
            "starts": args.starts,
            "search_grid": args.search_grid,
        }
        rep = solenoid.mixedness_check(child, parent, args.N,
                                       starts=args.starts,
                                       search_grid=args.search_grid)
        _write_report(args.out, "tower mixedness", params, rep.to_json())
    else:
        raise UsageError(f"unknown tower verb {verb!r}")


def _cmd_verify(args) -> None:
    verb = args.verify_command
    command = f"verify {verb}"

    if verb == "lemma22":
        pot = _require(load_descriptor(args.potential), ContinuumPotential,
                       "verify lemma22")
        params = {
            "potential_sha1": _descriptor_sha1(pot),
            "M": args.M, "xi": args.xi, "C0": args.C0, "delta": args.delta,
            "grid": args.grid, "P": args.P, "kappa": args.kappa,
        }
        rep = labverify.run_lemma22(
            pot, args.M, args.xi, args.C0, args.delta, args.grid,
            P=args.P, kappa=args.kappa,
        )
        _write_report(args.out, command, params, rep.to_json())

    elif verb == "asd12":
        fam = _require(load_descriptor(args.family), DiscreteFamily,
                       "verify asd12")
        params = {
            "family_sha1": _descriptor_sha1(fam),
            "emin": args.emin, "emax": args.emax, "delta": args.delta,
            "twist_pre": args.twist_pre, "reps": args.reps,
            "slide_n": args.slide_n, "twist_post": args.twist_post,
            "grid": args.grid, "tpoints": args.tpoints, "C0": args.C0,
        }
        rep = labverify.run_asd12(
            fam, args.emin, args.emax, delta=args.delta,
            twist_pre=args.twist_pre, reps=args.reps, slide_n=args.slide_n,
            twist_post=args.twist_post, energy_grid=args.grid,
            t_points=args.tpoints, C0=args.C0,
        )
        _write_report(args.out, command, params, rep)

    elif verb == "parseval":
        params = {"n": args.n, "seed": args.seed, "grid": args.grid,
                  "lam_max": args.lam_max}
        mats = labverify.random_polar_matrices(args.n, args.lam_max, args.seed)
        rep = labverify.carleson_parseval(mats, grid=args.grid)
        _write_report(args.out, command, params, rep)

    elif verb == "b1":
        rng = np.random.Generator(np.random.Philox(args.seed))
        lambdas = (args.lam_max * rng.random(args.n)).tolist()
        betas = rng.random(args.n).tolist()
        theta = args.theta if args.theta is not None else float(rng.random())
        params = {"n": args.n, "seed": args.seed, "lam_max": args.lam_max,
                  "s": args.s, "theta": theta,
                  "lambdas": lambdas, "betas": betas}
        rep = labverify.carleson_b1(lambdas, betas, theta, args.s, n=args.n)
        _write_report(args.out, command, params, rep)

    elif verb == "spectral-parseval":
        pot = load_descriptor(args.potential)
        system = _spectral_system(pot)
        if system.kind != "discrete":
            raise UsageError("verify spectral-parseval needs a discrete potential")
        bandset = cyc.discrete_band_spectrum(system)
        params = {"potential_sha1": _descriptor_sha1(pot), "n": args.n,
                  "order": args.order, "band_order": args.band_order}

        integrals = [cyc.band_norm_integral(system, band, args.n,
                                            order=args.band_order)
                     for band in bandset.bands]
        rep = {
            "kind": "spectral-parseval-report",
            "n": args.n,
            "parseval": float(cyc.spectral_parseval(system, bandset, args.n,
                                                    order=args.order)),
            "band_integrals": [float(v) for v in integrals],
            "max_band_integral": float(max(integrals)),
            "bands": len(bandset),
        }
        _write_report(args.out, command, params, rep)

    elif verb == "slowdecay":
        ns = _int_list(args.ns)
        params = {"theta0": args.theta0, "wobble": args.wobble,
                  "shear": args.shear, "alpha": args.alpha,
                  "depth": args.depth, "ns": ns, "grid": args.grid}
        fam = slowdeform.shear_rotation_family(args.theta0, args.wobble,
                                               args.shear)
        rows = slowdeform.decay_table(
            lambda n: fam, lambda n: args.alpha / n, ns, args.depth,
            grid=args.grid,
        )
        table = [(r["m"], r["n"], r["residual"], r["B_drift"],
                  r["theta_drift"]) for r in rows]
        _write_csv(args.out, command, params,
                   ("m", "n", "residual", "B_drift", "theta_drift"), table)

    elif verb == "uniform":
        pot = _require(load_descriptor(args.potential), ContinuumPotential,
                       "verify uniform")
        system = cyc.ContinuumCocycle(pot)
        bandset = cyc.band_spectrum(system, args.emin, args.emax,
                                    grid=args.grid)
        params = {"potential_sha1": _descriptor_sha1(pot),
                  "emin": args.emin, "emax": args.emax, "grid": args.grid,
                  "level": args.level, "scan": args.scan,
                  "order": args.order, "tsamples": args.tsamples}
        rep = cyc.uniformness_check(system, bandset, args.level,
                                    scan=args.scan, order=args.order,
                                    t_samples=args.tsamples)
        _write_report(args.out, command, params, rep.to_json())

    elif verb == "crooked":
        pot = _require(load_descriptor(args.potential), ContinuumPotential,
                       "verify crooked")
        params = {"potential_sha1": _descriptor_sha1(pot),
                  "eps1": args.eps1, "C1": args.C1, "M": args.M,
                  "per_band": args.per_band, "tsamples": args.tsamples,
                  "basepoints": args.basepoints}
        rep = labverify.crooked_metric(
            pot, args.eps1, args.C1, args.M, per_band=args.per_band,
            t_samples=args.tsamples, basepoints=args.basepoints,
        )
        _write_report(args.out, command, params, rep)

    elif verb == "good-nice":
        pot = load_descriptor(args.potential)
        if not isinstance(pot, (ContinuumPotential, DiscreteFamily,
                                DiscretePotential)):
            raise UsageError("verify good-nice needs a periodic potential")
        params = {"potential_sha1": _descriptor_sha1(pot),
                  "eps": args.eps, "M": args.M,
                  "per_band": args.per_band, "nodes": args.nodes}
        rep = labverify.good_nice_metrics(pot, args.eps, args.M,
                                          per_band=args.per_band,
                                          quad_nodes=args.nodes)
        _write_report(args.out, command, params, rep)

    elif verb == "wj-model":
        spec = labverify.RandomModelSpec(
            delta=args.delta, R=args.R, cprime=args.cprime,
            P=args.P, trials=args.trials, seed=args.seed,
        )
        params = {"delta": args.delta, "R": args.R, "cprime": args.cprime,
                  "P": args.P, "trials": args.trials, "seed": args.seed,
                  "C0": args.C0, "bins": args.bins}
        rep = labverify.wj_model(spec, C0=args.C0, bins=args.bins)
        _write_report(args.out, command, params, rep)

    else:
        raise UsageError(f"unknown verify verb {verb!r}")


def _int_list(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise UsageError("expected at least one integer")
    return values


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_out(p):
    p.add_argument("--out", required=True, help="output file path")


def _add_jobs(p):
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def _add_scan(p, emin=-4.0, emax=12.0):
    p.add_argument("--emin", type=float, default=emin)
    p.add_argument("--emax", type=float, default=emax)
    p.add_argument("--grid", type=int, default=4096,
                   help="trace-scan resolution for band detection")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="band-edge tangency tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="Periodic cocycle laboratory: spectra, deformations, "
                    "towers, and quantitative growth checks.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cocycle-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band spectrum as CSV intervals")
    p.add_argument("--potential", required=True)
    _add_scan(p)
    _add_out(p)
    p.set_defaults(run=_cmd_bands)

    for name, blurb in (
        ("ids", "integrated density of states on an energy grid"),
        ("lyapunov", "Lyapunov exponent on an energy grid"),
        ("density", "density of states inside bands"),
        ("growth", "transfer-norm growth functional inside bands"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--potential", required=True)
        _add_scan(p)
        p.add_argument("--count", type=int, default=512,
                       help="number of energy samples")
        p.add_argument("--samples", type=int, default=2048,
                       help="time samples for the growth functional")
        _add_jobs(p)
        _add_out(p)
        p.set_defaults(run=_cmd_quantity)

    p = sub.add_parser("sweep", help="per-energy quantity sweep (cacheable)")
    p.add_argument("--potential", required=True)
    p.add_argument("--quantity", required=True, choices=QUANTITIES)
    _add_scan(p)
    p.add_argument("--count", type=int, default=512)
    p.add_argument("--samples", type=int, default=2048)
    _add_jobs(p)
    _add_out(p)
    p.set_defaults(run=_cmd_quantity)

    p = sub.add_parser("deform", help="potential deformation operators")
    dsub = p.add_subparsers(dest="deform_command", required=True)
    for verb in ("pad", "pad-simple", "repeat", "twist", "slide", "crumble"):
        q = dsub.add_parser(verb)
        q.add_argument("--in", dest="infile", required=True)
        if verb in ("pad", "pad-simple", "slide"):
            q.add_argument("--delta", type=float, required=True)
        if verb == "pad":
            q.add_argument("--N", type=int, required=True)
        q.add_argument("--n", type=int, required=True)
        _add_out(q)
        q.set_defaults(run=_cmd_deform)

    p = sub.add_parser("tower", help="solenoid tower stages")
    tsub = p.add_subparsers(dest="tower_command", required=True)
    q = tsub.add_parser("realize-pad")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--eps0", type=float, required=True)
    _add_out(q)
    q.set_defaults(run=_cmd_tower)
    q = tsub.add_parser("realize-mix")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--eps0", type=float, required=True)
    _add_out(q)
    q.set_defaults(run=_cmd_tower)
    q = tsub.add_parser("trace")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--tmax", type=float, required=True)
    q.add_argument("--samples", type=int, default=1024)
    _add_out(q)
    q.set_defaults(run=_cmd_tower)
    q = tsub.add_parser("mixedness")
    q.add_argument("--child", required=True)
    q.add_argument("--parent", required=True)
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--starts", type=int, default=1024)
    q.add_argument("--search-grid", type=int, default=0)
    _add_out(q)
    q.set_defaults(run=_cmd_tower)

    p = sub.add_parser("verify", help="quantitative pipeline checks")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    q = vsub.add_parser("lemma22")
    q.add_argument("--potential", required=True)
    q.add_argument("--M", type=float, default=6.0)
    q.add_argument("--xi", type=float, default=0.2)
    q.add_argument("--C0", type=float, default=4.0)
    q.add_argument("--delta", type=float, default=0.05)
    q.add_argument("--grid", type=int, default=2000)
    q.add_argument("--P", type=int, default=None)
    q.add_argument("--kappa", type=float, default=1e-3)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("asd12")
    q.add_argument("--family", required=True)
    q.add_argument("--emin", type=float, required=True)
    q.add_argument("--emax", type=float, required=True)
    q.add_argument("--delta", type=float, default=0.05)
    q.add_argument("--twist-pre", type=int, default=3)
    q.add_argument("--reps", type=int, default=6)
    q.add_argument("--slide-n", type=int, default=4)
    q.add_argument("--twist-post", type=int, default=3)
    q.add_argument("--grid", type=int, default=200)
    q.add_argument("--tpoints", type=int, default=24)
    q.add_argument("--C0", type=float, default=4.0)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("parseval")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--grid", type=int, default=2 ** 14)
    q.add_argument("--lam-max", type=float, default=0.3)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("b1")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--theta", type=float, default=None,
                   help="rotation step; drawn from the seed when omitted")
    q.add_argument("--s", type=float, default=1e-3)
    q.add_argument("--lam-max", type=float, default=0.3)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("spectral-parseval")
    q.add_argument("--potential", required=True)
    q.add_argument("--n", type=int, default=0,
                   help="spectral truncation index")
    q.add_argument("--order", type=int, default=48)
    q.add_argument("--band-order", type=int, default=64)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("slowdecay")
    q.add_argument("--theta0", type=float, default=0.17)
    q.add_argument("--wobble", type=float, default=0.05)
    q.add_argument("--shear", type=float, default=0.1)
    q.add_argument("--alpha", type=float, default=1.0,
                   help="deformation size scale; per-stage size is alpha/n")
    q.add_argument("--depth", type=int, default=3)
    q.add_argument("--ns", default="16,32,64,128,256",
                   help="comma-separated list of stage counts")
    q.add_argument("--grid", type=int, default=256)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("uniform")
    q.add_argument("--potential", required=True)
    q.add_argument("--level", type=float, required=True)
    q.add_argument("--emin", type=float, default=-4.0)
    q.add_argument("--emax", type=float, default=12.0)
    q.add_argument("--grid", type=int, default=4096)
    q.add_argument("--scan", type=int, default=33)
    q.add_argument("--order", type=int, default=24)
    q.add_argument("--tsamples", type=int, default=512)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("crooked")
    q.add_argument("--potential", required=True)
    q.add_argument("--eps1", type=float, required=True)
    q.add_argument("--C1", type=float, required=True)
    q.add_argument("--M", type=float, required=True)
    q.add_argument("--per-band", type=int, default=48)
    q.add_argument("--tsamples", type=int, default=256)
    q.add_argument("--basepoints", type=int, default=32)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("good-nice")
    q.add_argument("--potential", required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--M", type=float, required=True)
    q.add_argument("--per-band", type=int, default=32)
    q.add_argument("--nodes", type=int, default=2048)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    q = vsub.add_parser("wj-model")
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--R", type=float, required=True)
    q.add_argument("--cprime", type=float, required=True)
    q.add_argument("--P", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--C0", type=float, default=2.0)
    q.add_argument("--bins", type=int, default=40)
    _add_jobs(q)
    _add_out(q)
    q.set_defaults(run=_cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def dispatch(argv) -> int:
    """Run one sub-command; report failures as a one-line diagnosis."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        args.run(args)
        return 0
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CocycleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
