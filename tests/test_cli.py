"""Command-line front end: descriptors, emission contracts, exit codes."""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cocycle_lab import cli, deform, potentials, solenoid, util
from cocycle_lab import cocycle as cyc
from cocycle_lab.cli import dispatch, load_descriptor, save_descriptor
from cocycle_lab.errors import UsageError, ValidationError
from cocycle_lab.util import canonical_json


DESCRIPTORS = os.path.join(os.path.dirname(__file__), "..", "descriptors")


def desc(name):
    return os.path.join(DESCRIPTORS, name)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def report_of(path):
    doc = json.loads(read(path))
    assert set(doc) == {"version", "config", "report"}
    assert doc["version"]
    assert "command" in doc["config"] and "params" in doc["config"]
    return doc["report"]


# ---------------------------------------------------------------------------
# descriptor IO
# ---------------------------------------------------------------------------


def test_bundled_descriptors_round_trip_byte_identical():
    for name in sorted(os.listdir(DESCRIPTORS)):
        path = desc(name)
        raw = read(path)
        again = canonical_json(cli.descriptor_json(load_descriptor(path))) + "\n"
        assert again == raw


def test_save_load_tower_round_trip(tmp_path):
    stage = solenoid.base_stage(potentials.smooth_bump_potential(2.0, 1.0, 0.5))
    child = solenoid.realize_padding(
        stage, deform.PaddingSpec(delta=0.05, N=4, n=2), 0.4)
    path = tmp_path / "tower.json"
    save_descriptor(child, str(path))
    raw = read(str(path))
    loaded = load_descriptor(str(path))
    assert canonical_json(cli.descriptor_json(loaded)) + "\n" == raw
    assert loaded.depth == child.depth
    assert loaded.arc_length == child.arc_length


def test_load_descriptor_accepts_bundled_names():
    fam = load_descriptor("cos-family")
    assert fam.n1 == 2


def test_load_descriptor_missing_file():
    with pytest.raises(UsageError):
        load_descriptor("/nonexistent/path.json")


def test_load_descriptor_negative_segment_length(tmp_path):
    doc = json.loads(read(desc("v0.json")))
    doc["segments"][0]["piece"]["len"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(doc))
    with pytest.raises(ValidationError):
        load_descriptor(str(path))


def test_load_descriptor_segments_must_fill_period(tmp_path):
    doc = json.loads(read(desc("v0.json")))
    doc["period"] = doc["period"] + 0.25
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(doc))
    with pytest.raises(ValidationError) as exc:
        load_descriptor(str(path))
    assert "period" in str(exc.value) or "segment" in str(exc.value)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_bands_free_discrete_single_row(tmp_path):
    out = tmp_path / "bands.csv"
    rc = dispatch(["bands", "--potential", desc("free.json"),
                   "--emin", "-3", "--emax", "3", "--tol", "1e-10",
                   "--out", str(out)])
    assert rc == 0
    lines = read(str(out)).splitlines()
    assert lines[0].startswith("# cocycle-lab ")
    assert lines[1] == "E_lo,E_hi"
    assert lines[2:] == ["-2,2"]


def test_verify_parseval_example(tmp_path):
    out = tmp_path / "rep.json"
    rc = dispatch(["verify", "parseval", "--n", "4", "--seed", "7",
                   "--grid", "16384", "--out", str(out)])
    assert rc == 0
    rep = report_of(str(out))
    assert rep["gap"] <= 1e-6


def test_deform_pad_period_formula(tmp_path):
    out = tmp_path / "v1.json"
    rc = dispatch(["deform", "pad", "--in", desc("v0.json"),
                   "--delta", "0.05", "--N", "8", "--n", "16",
                   "--out", str(out)])
    assert rc == 0
    v0 = load_descriptor(desc("v0.json"))
    v1 = load_descriptor(str(out))
    spec = deform.PaddingSpec(delta=0.05, N=8, n=16)
    assert v1.period == spec.new_period(v0.period)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_malformed_descriptor_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "discrete-family", "n0": 1')
    rc = dispatch(["bands", "--potential", str(path),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "malformed descriptor" in capsys.readouterr().err


def test_wrong_descriptor_kind_is_usage_error(tmp_path, capsys):
    rc = dispatch(["deform", "pad", "--in", desc("cos2.json"),
                   "--delta", "0.05", "--N", "4", "--n", "4",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2
    capsys.readouterr()


def _broken_bump_width(doc):
    del doc["bases"]["bump"]["of"]["width"]


def _broken_tcos_amp(doc):
    doc["expr"]["terms"][0]["amp"] = "x"


def _broken_values(doc):
    del doc["values"]


def _broken_arc_length(doc):
    del doc["stages"][0]["arc_length"]


def _set(value, *path):
    """A break that puts a value of the wrong type at path in the doc."""
    def breaks(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return breaks


def _padded_tower():
    return solenoid.realize_padding(
        solenoid.base_stage(load_descriptor(desc("v0.json"))),
        deform.PaddingSpec(0.05, 4, 2), 0.4)


@pytest.mark.parametrize("source, breaks, field", [
    (lambda: load_descriptor(desc("v0.json")), _broken_bump_width, "width"),
    (lambda: load_descriptor(desc("cos2.json")), _broken_tcos_amp, "amp"),
    (lambda: potentials.DiscretePotential((0.5, -0.5)), _broken_values, "values"),
    (lambda: solenoid.base_stage(load_descriptor(desc("v0.json"))),
     _broken_arc_length, "arc_length"),
    # integer fields: int() would read 2.9 as 2 and true as 1
    (lambda: load_descriptor(desc("circle.json")), _set(2.9, "period"), "period"),
    (lambda: load_descriptor(desc("circle.json")), _set(True, "period"), "period"),
    (lambda: load_descriptor(desc("cos2.json")), _set(2.5, "n1"), "n1"),
    (lambda: load_descriptor(desc("cos2.json")),
     _set(2.5, "expr", "terms", 1, "period"), "period"),
    (lambda: load_descriptor(desc("cos2.json")),
     _set(False, "expr", "terms", 1, "harmonic"), "harmonic"),
    (lambda: solenoid.base_stage(load_descriptor(desc("v0.json"))),
     _set(True, "stages", 0, "depth"), "depth"),
    (lambda: solenoid.base_stage(load_descriptor(desc("v0.json"))),
     _set(1.5, "stages", 0, "multiplicity"), "multiplicity"),
    (_padded_tower, _set(1.5, "stages", 1, "windows", 0, "block"), "block"),
], ids=["bump-width", "tcos-amp", "discrete-values", "tower-arc_length",
        "circle-period-float", "circle-period-bool", "family-n1",
        "jcos-period", "jcos-harmonic-bool", "tower-depth-bool",
        "tower-multiplicity", "tower-block"])
def test_malformed_fields_are_usage_errors(tmp_path, capsys, source, breaks, field):
    doc = cli.descriptor_json(source())
    breaks(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = (["tower", "trace", "--in", str(path), "--tmax", "1"]
            if doc["kind"] == "tower" else ["bands", "--potential", str(path)])
    assert dispatch(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(field) in err


def test_domain_failure_exits_one(tmp_path, capsys):
    # composite pipeline collapse: the window sits inside a spectral gap
    rc = dispatch(["verify", "asd12", "--family", desc("cos2.json"),
                   "--emin", "3.5", "--emax", "3.9", "--grid", "20",
                   "--tpoints", "4", "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# emission contracts
# ---------------------------------------------------------------------------


def test_identical_invocations_byte_identical(tmp_path):
    argv = ["ids", "--potential", desc("cos2.json"), "--emin", "-2.5",
            "--emax", "2.5", "--count", "40"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(argv + ["--out", str(a)]) == 0
    assert dispatch(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_do_not_change_bytes(tmp_path):
    base = ["sweep", "--potential", desc("cos2.json"), "--quantity", "growth",
            "--emin", "-2.5", "--emax", "2.5", "--count", "24",
            "--samples", "256"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert dispatch(base + ["--jobs", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cache_reuses_and_preserves_bytes(tmp_path, monkeypatch):
    argv = ["sweep", "--potential", desc("cos2.json"), "--quantity", "ids",
            "--emin", "-2.5", "--emax", "2.5", "--count", "30"]
    cold = tmp_path / "cold.csv"
    assert dispatch(argv + ["--out", str(cold)]) == 0
    cache = tmp_path / "cache"
    monkeypatch.setenv("COCYCLE_LAB_CACHE", str(cache))
    first = tmp_path / "first.csv"
    assert dispatch(argv + ["--out", str(first)]) == 0
    assert len(os.listdir(cache)) == 1
    second = tmp_path / "second.csv"
    assert dispatch(argv + ["--out", str(second)]) == 0
    assert cold.read_bytes() == first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("quantity", ["density", "ids"])
def test_discrete_sweep_monodromy_calls(tmp_path, monkeypatch, quantity):
    # past the band scan, a 64-energy grid costs one monodromy call for
    # all its band-interior energies; the per-energy loops made 128
    # (density, two rotation angles per energy) and up to 64 (ids)
    monkeypatch.delenv("COCYCLE_LAB_CACHE", raising=False)
    monodromy, rows = cyc.DiscreteCocycle.monodromy, cli._quantity_rows
    calls = []

    def counted(self, *args, **kw):
        calls.append(1)
        return monodromy(self, *args, **kw)

    def counted_rows(*args):
        monkeypatch.setattr(cyc.DiscreteCocycle, "monodromy", counted)
        return rows(*args)

    monkeypatch.setattr(cli, "_quantity_rows", counted_rows)
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--potential", desc("cos3.json"), "--quantity",
                     quantity, "--emin", "-2.5", "--emax", "2.5", "--count",
                     "64", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) - 2 >= 40
    assert 1 <= len(calls) <= 2


def test_cache_key_tracks_version_and_engine(tmp_path, monkeypatch):
    argv = ["sweep", "--potential", desc("cos2.json"), "--quantity", "ids",
            "--emin", "-2.5", "--emax", "2.5", "--count", "30"]
    cache = tmp_path / "cache"
    monkeypatch.setenv("COCYCLE_LAB_CACHE", str(cache))
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert dispatch(argv + ["--out", str(cold)]) == 0
    assert dispatch(argv + ["--out", str(warm)]) == 0
    assert len(os.listdir(cache)) == 1
    assert cold.read_bytes() == warm.read_bytes()
    # rows stored under another engine or version are never served
    monkeypatch.setattr(cli.cyc, "ENGINE", cli.cyc.ENGINE + " (changed)")
    engine = tmp_path / "engine.csv"
    assert dispatch(argv + ["--out", str(engine)]) == 0
    assert len(os.listdir(cache)) == 2
    assert engine.read_bytes() == cold.read_bytes()
    monkeypatch.setattr(cli, "__version__", cli.__version__ + "+changed")
    assert dispatch(argv + ["--out", str(tmp_path / "version.csv")]) == 0
    assert len(os.listdir(cache)) == 3


def test_import_loads_no_stats_or_thread_pool():
    # numpy.testing, which scipy loads, imports concurrent.futures itself,
    # so only the modules the package adds on top of its dependencies count
    code = ("import sys, numpy, scipy.integrate, scipy.optimize\n"
            "before = set(sys.modules)\n"
            "import cocycle_lab.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "cocycle_lab.cli" in added
    assert [m for m in added if m.startswith(("scipy.stats", "concurrent"))] == []


def _run_python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_leaves_out_scipy_integrate():
    done = _run_python("import sys\n"
                       "import cocycle_lab.cli\n"
                       "print('scipy.integrate' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_benchmark_tracer_installs_on_the_cli():
    # perfbench/tracing.py wraps the package by attribute name, including
    # cocycle.solve_ivp; a traced continuum trace must count no ODE solve
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(cli.__file__)))), "perfbench")
    code = ("import sys\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import cocycle_lab.cli\n"
            "import tracing\n"
            "tracing.install()\n"
            "from cocycle_lab import cocycle, potentials\n"
            "tracing.TRACER.active = True\n"
            "cocycle.ContinuumCocycle(potentials.bundled('smooth-bump')).trace(1.0)\n"
            "counts, _ = tracing.TRACER.summary()\n"
            "print(counts.get('cocycle.propagate.calls', 0),"
            " counts.get('cocycle.ode.calls', 0))")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    propagate, ode = (int(x) for x in done.stdout.split())
    assert propagate >= 1
    assert ode == 0


def test_cli_verbs_load_no_scipy(tmp_path):
    # scipy is a test and benchmark dependency only; cli-discrete's verbs
    # and the tower verbs (which solve for window depths) must not load it
    t1, t2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
    runs = [
        ["bands", "--potential", desc("cos3.json")],
        ["sweep", "--potential", desc("cos3.json"), "--quantity", "ids",
         "--count", "16"],
        ["sweep", "--potential", desc("cos3.json"), "--quantity", "density",
         "--count", "16"],
        ["sweep", "--potential", desc("cos3.json"), "--quantity", "growth",
         "--count", "8", "--samples", "64"],
        ["verify", "spectral-parseval", "--potential", desc("cos3.json"),
         "--n", "3"],
        ["verify", "asd12", "--family", desc("cos2.json"), "--emin", "0.3",
         "--emax", "0.7", "--grid", "40", "--tpoints", "8"],
        ["tower", "realize-pad", "--in", desc("v0.json"), "--delta", "0.05",
         "--N", "4", "--n", "2", "--eps0", "0.4", "--out", t1],
        ["tower", "realize-mix", "--in", t1, "--delta", "0.02", "--n", "3",
         "--eps0", "0.2", "--out", t2],
        ["tower", "mixedness", "--child", t2, "--parent", t1, "--N", "2",
         "--starts", "64"],
        ["verify", "slowdecay", "--ns", "8,16", "--depth", "2"],
    ]
    for k, argv in enumerate(runs):
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / f"out{k}")]
    code = ("import json, sys\n"
            "def scipy(): return [m for m in sys.modules"
            " if m.split('.')[0] == 'scipy']\n"
            "import cocycle_lab.cli as cli\n"
            "seen = [scipy()]\n"
            f"for argv in {runs!r}:\n"
            "    seen.append([argv[:2], cli.dispatch(argv), scipy()])\n"
            "print(json.dumps(seen))")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen[0] == []
    for verb, rc, loaded in seen[1:]:
        assert (verb, rc, loaded) == (verb, 0, [])


def test_no_module_imports_scipy_but_the_tracer_shim():
    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(read(os.path.join(pkg, name)))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            elif isinstance(node, ast.Call) and node.args:
                # importlib.import_module("scipy...") / __import__("scipy")
                arg = node.args[0]
                mods = [arg.value] if (isinstance(arg, ast.Constant)
                                       and isinstance(arg.value, str)) else []
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in mods):
                found.append((name, owner.get(id(node))))
    # cocycle.__getattr__ resolves solve_ivp for the benchmark tracer only
    assert found == [("cocycle.py", "__getattr__")]


def _gap_bump_trace(self, E):
    # one wide band with a micro-gap at 4.5 that the 16-point scan steps
    # over but three points of the tangency grid fall in
    return 1.0 + 2.0 * np.exp(-((np.asarray(E) - 4.5) / 0.4) ** 2)


def test_solver_failures_exit_cleanly(tmp_path, monkeypatch, capsys):
    # where scipy's ValueError/RuntimeError escaped as a traceback, a
    # failed root solve is a ResolutionError: exit 1 and one line
    bands = ["bands", "--potential", desc("v0.json"), "--grid", "16",
             "--out", str(tmp_path / "b.csv")]
    tower = ["tower", "realize-pad", "--in", desc("v0.json"), "--delta",
             "0.05", "--N", "4", "--n", "2", "--eps0", "0.4",
             "--out", str(tmp_path / "t.json")]
    with monkeypatch.context() as m:
        # a micro-gap wider than the tangency grid step is bracketed by the
        # nearest inside samples, so its edges are found
        m.setattr(cyc.ContinuumCocycle, "trace", _gap_bump_trace)
        assert dispatch(bands) == 0
    rows = read(str(tmp_path / "b.csv")).splitlines()[2:]
    half = 0.4 * np.sqrt(np.log(2.0))
    edges = [float(v) for row in rows for v in row.split(",")]
    assert edges == pytest.approx([-4.0, 4.5 - half, 4.5 + half, 12.0], abs=1e-12)
    with monkeypatch.context() as m:
        m.setattr(solenoid, "ramp_profile",
                  lambda s, beta: np.full(np.shape(s), np.nan))
        assert dispatch(tower) == 1
    with monkeypatch.context() as m:
        m.setitem(util.brentq.__kwdefaults__, "maxiter", 2)
        assert dispatch(tower) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert "NaN" in lines[0]
    assert "did not converge in 2 iterations" in lines[1]
    assert all(line.startswith("error: root ") for line in lines)
    # unpatched, both commands succeed
    assert dispatch(bands) == 0 and dispatch(tower) == 0


def test_growth_csv_skips_gap_energies(tmp_path):
    out = tmp_path / "g.csv"
    rc = dispatch(["growth", "--potential", desc("cos2.json"),
                   "--emin", "-3", "--emax", "3", "--count", "40",
                   "--samples", "256", "--out", str(out)])
    assert rc == 0
    lines = read(str(out)).splitlines()
    assert lines[1] == "E,value"
    rows = [ln.split(",") for ln in lines[2:]]
    assert 0 < len(rows) < 40
    assert all(float(v) >= 1.0 for _, v in rows)


def test_density_rows_match_library_values(tmp_path):
    import cocycle_lab.cocycle as cyc

    out = tmp_path / "d.csv"
    rc = dispatch(["density", "--potential", desc("free.json"),
                   "--emin", "-2", "--emax", "2", "--count", "20",
                   "--out", str(out)])
    assert rc == 0
    system = cyc.DiscreteCocycle(load_descriptor(desc("free.json")).slice(0.0))
    for line in read(str(out)).splitlines()[2:]:
        e, v = (float(tok) for tok in line.split(","))
        assert v == pytest.approx(float(cyc.density(system, e)), abs=1e-12)


def test_tower_verbs_end_to_end(tmp_path):
    t1 = tmp_path / "t1.json"
    rc = dispatch(["tower", "realize-pad", "--in", desc("v0.json"),
                   "--delta", "0.05", "--N", "4", "--n", "2",
                   "--eps0", "0.4", "--out", str(t1)])
    assert rc == 0
    t2 = tmp_path / "t2.json"
    rc = dispatch(["tower", "realize-mix", "--in", str(t1),
                   "--delta", "0.02", "--n", "3", "--eps0", "0.2",
                   "--out", str(t2)])
    assert rc == 0

    trace = tmp_path / "trace.csv"
    rc = dispatch(["tower", "trace", "--in", str(t1), "--tmax", "10",
                   "--samples", "32", "--out", str(trace)])
    assert rc == 0
    lines = read(str(trace)).splitlines()
    assert lines[1] == "t,V"
    assert len(lines) == 2 + 32

    mx = tmp_path / "mx.json"
    rc = dispatch(["tower", "mixedness", "--child", str(t2),
                   "--parent", str(t1), "--N", "2", "--starts", "256",
                   "--out", str(mx)])
    assert rc == 0
    rep = report_of(str(mx))
    assert rep["N"] == 2 and len(rep["per_j"]) == 1


def test_mixedness_rejects_unrelated_parent(tmp_path, capsys):
    t1 = tmp_path / "t1.json"
    assert dispatch(["tower", "realize-pad", "--in", desc("v0.json"),
                     "--delta", "0.05", "--N", "4", "--n", "2",
                     "--eps0", "0.4", "--out", str(t1)]) == 0
    other = tmp_path / "other.json"
    save_descriptor(solenoid.base_stage(potentials.free_continuum(2.0)),
                    str(other))
    rc = dispatch(["tower", "mixedness", "--child", str(t1),
                   "--parent", str(other), "--N", "2",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2
    capsys.readouterr()


def test_verify_b1_seeded_draws_reproduce(tmp_path):
    argv = ["verify", "b1", "--n", "5", "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert dispatch(argv + ["--out", str(a)]) == 0
    assert dispatch(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(read(str(a)))
    params = doc["config"]["params"]
    assert len(params["lambdas"]) == 5
    assert doc["report"]["secant_error"] >= 0.0


def test_verify_slowdecay_csv_schema(tmp_path):
    out = tmp_path / "sd.csv"
    rc = dispatch(["verify", "slowdecay", "--ns", "8,16", "--depth", "2",
                   "--grid", "64", "--out", str(out)])
    assert rc == 0
    lines = read(str(out)).splitlines()
    assert lines[1] == "m,n,residual,B_drift,theta_drift"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 4
    by = {(int(m), int(n)): float(res) for m, n, res, _, _ in rows}
    assert by[(1, 16)] < by[(1, 8)]


def test_verify_wj_model_report(tmp_path):
    out = tmp_path / "wj.json"
    rc = dispatch(["verify", "wj-model", "--delta", "0.02", "--R", "100",
                   "--cprime", "0.2", "--P", "12", "--trials", "5000",
                   "--seed", "42", "--out", str(out)])
    assert rc == 0
    rep = report_of(str(out))
    assert 0.0 <= rep["p_below_C0"] <= 1.0


def test_verify_spectral_parseval_report(tmp_path):
    out = tmp_path / "sp.json"
    rc = dispatch(["verify", "spectral-parseval", "--potential",
                   desc("cos3.json"), "--n", "10", "--out", str(out)])
    assert rc == 0
    rep = report_of(str(out))
    assert rep["parseval"] == pytest.approx(1.0, abs=1e-5)
    assert rep["max_band_integral"] <= 1.0 + 1e-3
    assert len(rep["band_integrals"]) == rep["bands"] == 3
