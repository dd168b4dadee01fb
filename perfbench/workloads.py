"""The benchmark's two workloads: inputs, one operation, and its checks.

Every workload is a closed loop with one caller.  A round is a fixed list of
operations; inputs come from ``numpy.random.default_rng([seed, stream,
round, index])``, so the same seed gives the same inputs, and no two
operations in one process share a potential or an energy array (the
package caches integrated pieces process-wide, keyed on those bytes).

``run(inp)`` is the timed operation.  ``check(inp, out)`` runs untimed and
returns a list of failure messages; it compares against ``oracles`` or
against properties the method must have, never against saved output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import oracles

WARMUP, TIMED = 0, 1


def _rng(seed, stream, r, i):
    return np.random.default_rng([seed, stream, r, i])


class OpFailed(Exception):
    """The program reported a failure for one operation."""


class LibraryWorkload:
    """A workload whose operations call the package in this process."""

    def make_round(self, stream, r):
        return [self.make_input(stream, r, i) for i in range(self.ops_per_round)]

    def warmup(self):
        return self.make_input(WARMUP, 0, 0)

    def finish(self, first_round):
        return []


# ---------------------------------------------------------------------------
# continuum-spectra
# ---------------------------------------------------------------------------


class ContinuumSpectra(LibraryWorkload):
    """Band spectrum, IDS, density, growth and Lyapunov exponent of a freshly
    drawn padded smooth bump: the scalar-energy path."""

    name = "continuum-spectra"
    ops_per_round = 5
    PERIOD = 2.0
    PAD = (0.05, 1, 1)  # PaddingSpec(delta, N, n)
    E_MIN, E_MAX, GRID = -0.5, 5.0, 1024
    PICKS = 3
    EDGE_TOL = 1e-8

    def __init__(self, seed, run_dir, trace):
        from cocycle_lab import cocycle, deform, potentials

        self.cyc, self.deform, self.potentials = cocycle, deform, potentials
        self.seed = seed
        self.spec = deform.PaddingSpec(*self.PAD)

    def make_input(self, stream, r, i):
        g = _rng(self.seed, stream, r, i)
        return {
            "height": float(g.uniform(0.9, 1.1)),
            "zero_nbhd": float(g.uniform(0.45, 0.55)),
            "picks": g.uniform(0.0, 1.0, (self.PICKS, 2)).tolist(),
        }

    def run(self, inp):
        cyc = self.cyc
        pot = self.potentials.smooth_bump_potential(
            self.PERIOD, inp["height"], inp["zero_nbhd"])
        system = cyc.ContinuumCocycle(self.deform.pad(pot, self.spec))
        bs = cyc.band_spectrum(system, self.E_MIN, self.E_MAX, grid=self.GRID)
        whole = [b for b in bs.bands if b.lo_sign and b.hi_sign]
        if not whole:
            raise OpFailed("no band below E_max has two refined edges")
        inside = sorted(
            whole[int(f * len(whole))].lo
            + (0.25 + 0.5 * u) * whole[int(f * len(whole))].width
            for f, u in inp["picks"])
        inside = np.array(inside)
        edges = sorted([b.lo for b in whole] + [b.hi for b in whole])
        gaps = np.array([0.5 * (a.hi + b.lo)  # open gaps; tangencies close some
                         for a, b in zip(bs.bands[:-1], bs.bands[1:])
                         if b.lo > a.hi])
        ids_at = np.array(sorted(edges + inside.tolist()))
        return {
            "bands": bs,
            "inside": inside,
            "gaps": gaps,
            "ids_at": ids_at,
            "ids": cyc.ids(system, ids_at, bs),
            "density": cyc.density(system, inside),
            "growth": [cyc.growth_value(system, float(e)).value for e in inside],
            "lyap_gaps": cyc.lyapunov(system, gaps),
            "lyap_bands": cyc.lyapunov(system, inside),
        }

    def check(self, inp, out):
        bad = []
        bs = out["bands"]
        segs = oracles.padded_segments(
            oracles.bump_segments(inp["height"], self.PERIOD, inp["zero_nbhd"]),
            *self.PAD)
        edge_e, edge_sign = [], []
        for b in bs.bands:
            for e, s in ((b.lo, b.lo_sign), (b.hi, b.hi_sign)):
                if s:
                    edge_e.append(e)
                    edge_sign.append(s)
        probe = np.concatenate([edge_e, out["inside"], out["gaps"]])
        tr = oracles.magnus_trace(segs, probe)
        k, m = len(edge_e), len(out["inside"])
        err = np.abs(tr[:k] - 2.0 * np.array(edge_sign))
        if not np.all(err <= self.EDGE_TOL):
            bad.append(f"edge |tr -+ 2| up to {err.max():.3e}")
        if not np.all(np.abs(tr[k:k + m]) < 2.0):
            bad.append("an interior energy is not elliptic for the oracle")
        if not np.all(np.abs(tr[k + m:]) > 2.0):
            bad.append("a gap centre is not hyperbolic for the oracle")
        period = bs.period
        ids_at, ids = out["ids_at"], out["ids"]
        if np.any(np.diff(ids) < -1e-12):
            bad.append("ids decreases")
        for idx, b in enumerate(bs.bands):
            for e, want in ((b.lo, idx / period), (b.hi, (idx + 1) / period)):
                hit = np.nonzero(ids_at == e)[0]
                if hit.size and abs(ids[hit[0]] - want) > 1e-12:
                    bad.append(f"ids at edge {e!r} is {ids[hit[0]]!r}, want {want!r}")
        if not np.all(np.isfinite(out["density"]) & (out["density"] > 0)):
            bad.append("density not positive and finite")
        if not np.all(out["lyap_bands"] == 0.0):
            bad.append("lyapunov nonzero inside a band")
        if not np.all(out["lyap_gaps"] > 0.0):
            bad.append("lyapunov not positive at a gap centre")
        if min(out["growth"]) < 1.0 - 1e-12:
            bad.append(f"growth below 1: {min(out['growth'])!r}")
        return bad


# ---------------------------------------------------------------------------
# cli-discrete
# ---------------------------------------------------------------------------


def _bump_descriptor(height, period, zero_nbhd):
    support = period - zero_nbhd
    return {
        "kind": "continuum-periodic", "period": period, "zero_nbhd": zero_nbhd,
        "bases": {"bump": {"kind": "scale", "factor": height,
                           "of": {"kind": "bump", "center": support / 2.0,
                                  "width": support / 2.0}}},
        "segments": [{"piece": {"base": "bump", "len": support, "shift": 0.0,
                                "timescale": 1.0}}, {"gap": zero_nbhd}],
    }


# lam (cos 2 pi t + cos pi j): the family of the composite-deformation tests
_COS_FAMILY = {
    "kind": "discrete-family", "n0": 1.0, "n0_exact": [1, 1], "n1": 2,
    "expr": {"kind": "fsum", "terms": [
        {"kind": "tcos", "amp": 0.2, "period": 1.0, "harmonic": 1, "phase": 0.0},
        {"kind": "jcos", "amp": 0.2, "period": 2, "harmonic": 1, "phase": 0.0}]},
}


def _discrete_values(g, n_lo, n_hi):
    """Seeded periodic values whose bands and gaps are all wider than 0.02,
    so a band scan cannot miss one."""
    while True:
        n = int(g.integers(n_lo, n_hi + 1))
        values = np.round(g.uniform(-1.0, 1.0, n), 6)
        edges = oracles.jacobi_band_edges(values)
        if np.all(edges[:, 1] - edges[:, 0] > 0.02) and \
                np.all(edges[1:, 0] - edges[:-1, 1] > 0.02):
            return [float(v) for v in values]


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [[float(x) for x in row] for row in csv.reader(lines[2:])]


def _report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["report"]


class CliDiscrete:
    """One ``python -m cocycle_lab.cli`` process per operation, cycling
    through discrete spectra, the composite deformation, towers, the
    normal-form ladder and the sweep memo."""

    name = "cli-discrete"
    ops_per_round = 10
    SWEEP_COUNT = 64
    MIX_N, MIX_EPS0, MIX_LEVEL = 32, 0.4, 4

    def __init__(self, seed, run_dir, trace):
        self.seed = seed
        self.root = os.getcwd()
        self.run_dir = run_dir
        self.trace = trace
        self.launches = []  # per-process trace summaries when tracing
        os.makedirs(run_dir, exist_ok=True)
        self.family = self._write(os.path.join(run_dir, "cos-family.json"),
                                  _COS_FAMILY)
        self.env = dict(os.environ)
        self.env.pop("COCYCLE_LAB_CACHE", None)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    @staticmethod
    def _write(path, doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return os.path.relpath(path)

    def _cli(self, args, env=None, tag="op"):
        env = dict(env or self.env)
        if self.trace:
            out = os.path.join(self.run_dir, f"trace-{len(self.launches)}-{tag}")
            env["BENCH_TRACE_OUT"] = out
            env["BENCH_SPAWN_T"] = repr(time.monotonic())
            cmd = [sys.executable, os.path.join("perfbench", "cli_launcher.py")]
        else:
            cmd = [sys.executable, "-m", "cocycle_lab.cli"]
        proc = subprocess.run(cmd + list(args), env=env, cwd=self.root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        if self.trace:
            with open(out + ".json", encoding="utf-8") as fh:
                self.launches.append(json.load(fh))
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")

    def make_round(self, stream, r):
        """Write this round's descriptors; returns its ten operations."""
        g = _rng(self.seed, stream, r, 0)
        d = os.path.join(self.run_dir, f"s{stream}r{r}")
        os.makedirs(d, exist_ok=True)

        def disc(name, n_lo, n_hi):
            values = _discrete_values(g, n_lo, n_hi)
            path = self._write(os.path.join(d, name + ".json"),
                               {"kind": "discrete-periodic", "values": values})
            return path, values

        def out(name):
            return os.path.relpath(os.path.join(d, name))

        def sweep(quantity, path, values, dest, count):
            lo, hi = min(values) - 2.5, max(values) + 2.5
            return ["sweep", "--potential", path, "--quantity", quantity,
                    "--emin", repr(lo), "--emax", repr(hi),
                    "--count", str(count), "--out", dest]

        ops = []
        path, values = disc("bands", 4, 7)
        ops.append(("bands", ["bands", "--potential", path, "--out",
                              out("bands.csv")], {"values": values}))
        path, values = disc("ids", 4, 7)
        ops.append(("ids", sweep("ids", path, values, out("ids.csv"),
                                 self.SWEEP_COUNT), {"values": values}))
        path, values = disc("density", 4, 7)
        ops.append(("density", sweep("density", path, values,
                                     out("density.csv"), self.SWEEP_COUNT),
                    {"values": values}))
        lo = float(np.round(g.uniform(0.40, 0.48), 6))
        hi = float(np.round(lo + g.uniform(0.14, 0.18), 6))
        ops.append(("asd12", ["verify", "asd12", "--family", self.family,
                              "--emin", repr(lo), "--emax", repr(hi),
                              "--out", out("asd12.json")], {}))
        path, values = disc("parseval", 3, 5)
        site = int(g.integers(0, 13))
        ops.append(("parseval", ["verify", "spectral-parseval", "--potential",
                                 path, "--n", str(site), "--out",
                                 out("parseval.json")], {"values": values}))
        height = float(np.round(g.uniform(0.9, 1.1), 6))
        zero = float(np.round(g.uniform(0.45, 0.55), 6))
        delta = float(np.round(g.uniform(0.2, 0.3), 6))
        bump = self._write(os.path.join(d, "bump.json"),
                           _bump_descriptor(height, 2.0, zero))
        tower = out("tower.json")
        ops.append(("realize-mix", ["tower", "realize-mix", "--in", bump,
                                    "--delta", repr(delta), "--n",
                                    str(self.MIX_N), "--eps0",
                                    repr(self.MIX_EPS0), "--out", tower],
                    {"delta": delta}))
        ops.append(("mixedness", ["tower", "mixedness", "--child", tower,
                                  "--parent", bump, "--N", str(self.MIX_LEVEL),
                                  "--out", out("mixedness.json")], {}))
        params = [float(np.round(g.uniform(a, b), 6))
                  for a, b in ((0.14, 0.2), (0.04, 0.06), (0.08, 0.12))]
        ops.append(("slowdecay", ["verify", "slowdecay", "--theta0",
                                  repr(params[0]), "--wobble", repr(params[1]),
                                  "--shear", repr(params[2]), "--out",
                                  out("slowdecay.csv")], {}))
        path, values = disc("memo", 4, 7)
        cache = os.path.join(d, "cache")
        shutil.rmtree(cache, ignore_errors=True)
        memo_env = dict(self.env, COCYCLE_LAB_CACHE=cache)
        state = {"cache": cache}
        ops.append(("memo-miss", sweep("growth", path, values,
                                       out("memo-miss.csv"), 48),
                    {"env": memo_env, "state": state}))
        ops.append(("memo-hit", sweep("growth", path, values,
                                      out("memo-hit.csv"), 48),
                    {"env": memo_env, "state": state}))
        return [{"kind": k, "args": a, **extra} for k, a, extra in ops]

    def warmup(self):
        return self.make_round(WARMUP, 0)[0]

    def run(self, inp):
        self._cli(inp["args"], env=inp.get("env"), tag=inp["kind"])
        if inp["kind"] == "memo-miss":
            files = os.listdir(inp["state"]["cache"])
            inp["state"]["files"] = files
            inp["state"]["mtime"] = [
                os.stat(os.path.join(inp["state"]["cache"], f)).st_mtime_ns
                for f in files]
        return inp["args"][-1]

    # -- checks ------------------------------------------------------------

    def check(self, inp, dest):
        return getattr(self, "_check_" + inp["kind"].replace("-", "_"))(inp, dest)

    def _check_bands(self, inp, dest):
        rows = np.array(_read_rows(dest))
        want = oracles.jacobi_band_edges(inp["values"])
        if rows.shape != want.shape:
            return [f"{len(rows)} bands, want {len(want)}"]
        err = float(np.max(np.abs(rows - want)))
        return [] if err <= 1e-9 else [f"band edges off Jacobi by {err:.3e}"]

    def _check_ids(self, inp, dest):
        rows = np.array(_read_rows(dest))
        edges = oracles.jacobi_band_edges(inp["values"])
        n = len(inp["values"])
        bad = []
        if len(rows) != self.SWEEP_COUNT:
            bad.append(f"{len(rows)} ids rows")
        if np.any(np.diff(rows[:, 1]) < -1e-12):
            bad.append("ids decreases")
        for e, v in rows:
            below = int(np.sum(edges[:, 1] < e - 1e-9))
            in_band = below < n and edges[below, 0] + 1e-9 < e
            if not in_band and abs(v - below / n) > 1e-12:
                bad.append(f"ids {v!r} in a gap at {e!r}, want {below}/{n}")
            if in_band and not below / n - 1e-12 <= v <= (below + 1) / n + 1e-12:
                bad.append(f"ids {v!r} outside band {below} at {e!r}")
        return bad

    def _check_density(self, inp, dest):
        rows = np.array(_read_rows(dest))
        edges = oracles.jacobi_band_edges(inp["values"])
        if rows.size == 0:
            return ["no density rows"]
        e, v = rows[:, 0], rows[:, 1]
        dist = np.min(np.abs(e[:, None] - edges.reshape(1, -1)), axis=1)
        inside = np.any((edges[:, 0] < e[:, None]) & (e[:, None] < edges[:, 1]),
                        axis=1)
        bad = []
        if not np.all(inside):
            bad.append("a density row lies outside the Jacobi bands")
        if not np.all(np.isfinite(v) & (v > 0)):
            bad.append("density not positive and finite")
        far = inside & (dist > 1e-3)
        want = oracles.discrete_density(inp["values"], e[far])
        err = np.abs(v[far] / want - 1.0)
        if err.size and err.max() > 1e-5:
            bad.append(f"density off the discriminant by {err.max():.3e}")
        return bad

    def _check_asd12(self, inp, dest):
        rep = _report(dest)
        pred = rep["predicted_resonant"]
        bad = []
        if not pred / 3.0 <= rep["resonant_fraction"] <= 3.0 * pred:
            bad.append(f"resonant fraction {rep['resonant_fraction']}")
        if not rep["tau"] > 1.0:
            bad.append("tau <= 1")
        if not rep["bad_fraction"] < rep["certificate_bound"]:
            bad.append("certificate bad fraction above bound")
        if not rep["min_inf_sup"] > 0.0:
            bad.append("min_inf_sup <= 0")
        if not (math.isfinite(rep["c1_closeness"])
                and math.isfinite(rep["avg_dist_max"])):
            bad.append("closeness not finite")
        if not 0.0 < rep["excluded_fraction"] < 1.0:
            bad.append("excluded fraction outside (0, 1)")
        return bad

    def _check_parseval(self, inp, dest):
        rep = _report(dest)
        bad = []
        if abs(rep["parseval"] - 1.0) > 1e-8:
            bad.append(f"parseval {rep['parseval']!r}")
        if rep["bands"] != len(inp["values"]):
            bad.append(f"{rep['bands']} bands")
        return bad

    def _check_realize_mix(self, inp, dest):
        with open(dest, encoding="utf-8") as fh:
            top = json.load(fh)["stages"][-1]
        base_period = 2.0
        want = 2 * self.MIX_N * base_period + self.MIX_N * inp["delta"]
        bad = []
        if top["multiplicity"] != 2 * self.MIX_N:
            bad.append(f"multiplicity {top['multiplicity']}")
        if abs(top["period"] - want) > 1e-9 * want:
            bad.append(f"tower period {top['period']!r}, want {want!r}")
        return bad

    def _check_mixedness(self, inp, dest):
        rep = _report(dest)
        return [] if rep["passed"] and rep["N"] == self.MIX_LEVEL \
            else ["mixedness not certified"]

    def _check_slowdecay(self, inp, dest):
        rows = _read_rows(dest)
        bad = []
        for m in (1, 2, 3):
            pts = sorted((n, res) for mm, n, res, _, _ in rows if mm == m)[-3:]
            slope = np.polyfit(np.log([p[0] for p in pts]),
                               np.log([p[1] for p in pts]), 1)[0]
            if abs(slope + m) > 0.1:
                bad.append(f"stage {m} residual slope {slope:.3f}, want {-m}")
        return bad

    def _check_memo_miss(self, inp, dest):
        rows = _read_rows(dest)
        bad = [] if rows and min(v for _, v in rows) >= 1.0 - 1e-12 \
            else ["growth rows missing or below 1"]
        if len(inp["state"]["files"]) != 1:
            bad.append(f"{len(inp['state']['files'])} memo entries after a miss")
        return bad

    def _check_memo_hit(self, inp, dest):
        state = inp["state"]
        with open(dest, "rb") as a, open(dest.replace("memo-hit", "memo-miss"),
                                          "rb") as b:
            same = a.read() == b.read()
        files = os.listdir(state["cache"])
        mtime = [os.stat(os.path.join(state["cache"], f)).st_mtime_ns
                 for f in files]
        bad = [] if same else ["memo hit bytes differ from the miss"]
        if files != state["files"] or mtime != state["mtime"]:
            bad.append("the memo entry was rewritten on a hit")
        return bad

    def finish(self, first_round):
        """Repeat round 0's density sweep with --jobs 2; bytes must match."""
        op = next(o for o in first_round if o["kind"] == "density")
        args = list(op["args"])
        dest = args[-1]
        args[-1] = dest.replace("density.csv", "density-jobs2.csv")
        self._cli(args + ["--jobs", "2"], tag="jobs2")
        if self.trace:
            self.launches.pop()  # a check, not part of the traced round
        with open(dest, "rb") as a, open(args[-1], "rb") as b:
            return [] if a.read() == b.read() else ["--jobs 2 changed the bytes"]


WORKLOADS = {w.name: w for w in (ContinuumSpectra, CliDiscrete)}
