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


def _keep(doc):
    """No break: the command line is at fault."""


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


@pytest.mark.parametrize("source, breaks, field, command", [
    (lambda: load_descriptor(desc("v0.json")), _broken_bump_width, "width", None),
    (lambda: load_descriptor(desc("cos2.json")), _broken_tcos_amp, "amp", None),
    (lambda: potentials.DiscretePotential((0.5, -0.5)), _broken_values, "values",
     None),
    (lambda: solenoid.base_stage(load_descriptor(desc("v0.json"))),
     _broken_arc_length, "arc_length", None),
    # integer fields: int() would read 2.9 as 2 and true as 1
    (lambda: load_descriptor(desc("circle.json")), _set(2.9, "period"), "period",
     None),
    (lambda: load_descriptor(desc("circle.json")), _set(True, "period"), "period",
     None),
    (lambda: load_descriptor(desc("cos2.json")), _set(2.5, "n1"), "n1", None),
    (lambda: load_descriptor(desc("cos2.json")),
     _set(2.5, "expr", "terms", 1, "period"), "period", None),
    (lambda: load_descriptor(desc("cos2.json")),
     _set(False, "expr", "terms", 1, "harmonic"), "harmonic", None),
    (lambda: solenoid.base_stage(load_descriptor(desc("v0.json"))),
     _set(True, "stages", 0, "depth"), "depth", None),
    (lambda: solenoid.base_stage(load_descriptor(desc("v0.json"))),
     _set(1.5, "stages", 0, "multiplicity"), "multiplicity", None),
    (_padded_tower, _set(1.5, "stages", 1, "windows", 0, "block"), "block",
     None),
    # scan options: a grid below 1 or a negative count
    (lambda: load_descriptor(desc("v0.json")), _keep, "grid",
     ["bands", "--grid", "0"]),
    (lambda: load_descriptor(desc("cos3.json")), _keep, "grid",
     ["bands", "--grid", "-5"]),
    (lambda: load_descriptor(desc("cos3.json")), _keep, "--count",
     ["sweep", "--quantity", "ids", "--count", "-1"]),
], ids=["bump-width", "tcos-amp", "discrete-values", "tower-arc_length",
        "circle-period-float", "circle-period-bool", "family-n1",
        "jcos-period", "jcos-harmonic-bool", "tower-depth-bool",
        "tower-multiplicity", "tower-block", "bands-grid-zero",
        "bands-grid-negative", "sweep-count-negative"])
def test_malformed_fields_are_usage_errors(tmp_path, capsys, source, breaks, field,
                                          command):
    doc = cli.descriptor_json(source())
    breaks(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    command = command or ["bands"]
    argv = (["tower", "trace", "--in", str(path), "--tmax", "1"]
            if doc["kind"] == "tower"
            else command[:1] + ["--potential", str(path)] + command[1:])
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
    # a 64-energy grid costs one integration of the period for all its
    # energies; the per-energy loops made 128 (density, two rotation angles
    # per energy) and up to 64 (ids).  The period is integrated by transfer
    # (monodromy) or by _prefix_table, which the density's invariant
    # section and the ids count and monodromy read.
    monkeypatch.delenv("COCYCLE_LAB_CACHE", raising=False)
    rows = cli._quantity_rows
    calls = []

    def counting(name):
        fn = getattr(cyc.DiscreteCocycle, name)

        def counted(self, *args, **kw):
            calls.append(name)
            return fn(self, *args, **kw)
        return counted

    def counted_rows(*args):
        for name in ("transfer", "_prefix_table"):
            monkeypatch.setattr(cyc.DiscreteCocycle, name, counting(name))
        return rows(*args)

    monkeypatch.setattr(cli, "_quantity_rows", counted_rows)
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--potential", desc("cos3.json"), "--quantity",
                     quantity, "--emin", "-2.5", "--emax", "2.5", "--count",
                     "64", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) - 2 >= 40
    assert calls == ["_prefix_table"]


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


def test_discrete_verbs_leave_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 10 ms of a process's start-up
    runs = [["bands", "--potential", desc("cos3.json"),
             "--out", str(tmp_path / "bands.json")],
            ["sweep", "--potential", desc("cos3.json"), "--quantity", "growth",
             "--count", "8", "--samples", "64", "--out", str(tmp_path / "g.csv")]]
    done = _run_python("import sys\n"
                       "import cocycle_lab.cli as cli\n"
                       f"print(*[cli.dispatch(argv) for argv in {runs!r}],"
                       " 'numpy.ma' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "False"]


def test_verbs_import_only_their_modules(tmp_path):
    # each CLI process compiles what it imports; a verb loads the pipeline
    # modules it calls and no other.  After each verb the four modules are
    # unloaded, so every verb starts from the bare CLI
    cos3 = desc("cos3.json")
    spectral = [["bands", "--potential", cos3]]
    spectral += [["sweep", "--potential", cos3, "--quantity", q, "--count", "8",
                  "--samples", "64"] for q in ("ids", "density", "growth")]
    spectral += [["verify", "spectral-parseval", "--potential", cos3]]
    runs = spectral + [
        ["tower", "realize-mix", "--in", desc("v0.json"), "--delta", "0.02",
         "--n", "3", "--eps0", "0.4"],
        ["verify", "asd12", "--family", desc("cos2.json"), "--emin", "0.3",
         "--emax", "0.7", "--grid", "40", "--tpoints", "8"],
    ]
    for k, argv in enumerate(runs):
        argv += ["--out", str(tmp_path / f"out{k}")]
    code = ("import json, sys\n"
            "import cocycle_lab, cocycle_lab.cli as cli\n"
            "heavy = ('deform', 'labverify', 'slowdeform', 'solenoid')\n"
            "seen = []\n"
            f"for argv in {runs!r}:\n"
            "    rc = cli.dispatch(argv)\n"
            "    seen.append([rc, [m for m in heavy"
            " if 'cocycle_lab.' + m in sys.modules]])\n"
            "    for m in heavy:\n"
            "        sys.modules.pop('cocycle_lab.' + m, None)\n"
            "        vars(cocycle_lab).pop(m, None)\n"
            "print(json.dumps(seen))")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen[:len(spectral)] == [[0, []]] * len(spectral)
    assert seen[len(spectral):] == [[0, ["deform", "solenoid"]],
                                    [0, ["deform", "labverify"]]]


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
    # over; v0's oscillation count has bands and gaps this trace lacks
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
        # a trace that the oscillation count contradicts: exit 1, one line
        m.setattr(cyc.ContinuumCocycle, "trace", _gap_bump_trace)
        assert dispatch(bands) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: the oscillation count disagrees")
    assert not (tmp_path / "b.csv").exists()
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


@pytest.mark.parametrize("verb", [["sweep", "--quantity", "growth"], ["growth"]])
def test_growth_sweep_skips_band_edge_energy(tmp_path, verb):
    # E = 0 is where two bands of the alternating potential touch, and its
    # trace is -2 exactly: it gets no row, where it used to fail the whole
    # sweep with exit 1
    out = tmp_path / "g.csv"
    assert dispatch(verb + ["--potential", desc("alternating.json"),
                            "--count", "301", "--samples", "64",
                            "--out", str(out)]) == 0
    system = cli._spectral_system(load_descriptor(desc("alternating.json")))
    assert float(system.trace(0.0)) == -2.0
    rows = [[float(x) for x in ln.split(",")]
            for ln in read(str(out)).splitlines()[2:]]
    assert len(rows) >= 60
    assert all(e != 0.0 for e, _ in rows)
    for e, v in rows:
        assert v == cyc.growth_value(system, e, samples=64).value


def test_memo_hit_skips_band_scan(tmp_path, monkeypatch):
    # a memo hit computes no rows at all
    argv = ["sweep", "--potential", desc("cos2.json"), "--quantity", "ids",
            "--emin", "-2.5", "--emax", "2.5", "--count", "30"]
    monkeypatch.setenv("COCYCLE_LAB_CACHE", str(tmp_path / "cache"))
    miss, hit = tmp_path / "miss.csv", tmp_path / "hit.csv"
    assert dispatch(argv + ["--out", str(miss)]) == 0

    def no_rows(*args):
        raise AssertionError("rows computed on a memo hit")

    monkeypatch.setattr(cli, "_quantity_rows", no_rows)
    assert dispatch(argv + ["--out", str(hit)]) == 0
    assert hit.read_bytes() == miss.read_bytes()


@pytest.mark.parametrize("quantity", cli.QUANTITIES)
@pytest.mark.parametrize("name", ["v0.json", "cos3.json"])
def test_sweeps_make_no_band_scan(tmp_path, monkeypatch, quantity, name):
    def no_scan(*args, **kw):
        raise AssertionError("band scan in a sweep")

    monkeypatch.delenv("COCYCLE_LAB_CACHE", raising=False)
    monkeypatch.setattr(cyc, "band_spectrum", no_scan)
    monkeypatch.setattr(cyc, "discrete_band_spectrum", no_scan)
    out = tmp_path / "s.csv"
    assert dispatch(["sweep", "--potential", desc(name), "--quantity", quantity,
                     "--count", "40", "--samples", "64", "--out", str(out)]) == 0
    assert len(read(str(out)).splitlines()) > 2


def _v0_rows(tmp_path, verb):
    out = tmp_path / "v0.csv"
    assert dispatch(verb + ["--potential", desc("v0.json"), "--samples", "64",
                            "--out", str(out)]) == 0
    return [[float(x) for x in ln.split(",")]
            for ln in read(str(out)).splitlines()[2:]]


def test_ids_sweep_reads_the_band_at_emax(tmp_path):
    # E = 12, the default top of the range, lies inside v0's band 2; the
    # scanned band ended there, and the row read 1.5, the band's top value
    system = cli._spectral_system(load_descriptor(desc("v0.json")))
    assert abs(system.trace(12.0)) < 2.0
    e, v = _v0_rows(tmp_path, ["ids"])[-1]
    assert e == 12.0 and 1.0 < v < 1.5
    assert v == cyc.ids(system, 12.0)


@pytest.mark.parametrize("verb", [["density"], ["sweep", "--quantity", "growth"]])
def test_in_band_emax_gets_a_row(tmp_path, verb):
    # the scanned band ended at emax, and E < hi left the top energy out
    system = cli._spectral_system(load_descriptor(desc("v0.json")))
    e, v = _v0_rows(tmp_path, verb)[-1]
    assert e == 12.0
    want = (cyc.density(system, 12.0) if verb == ["density"]
            else cyc.growth_value(system, 12.0, samples=64).value)
    assert v == want


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
