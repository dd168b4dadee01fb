"""Golden CLI corpus: every leaf verb's output, help text and exit code.

The manifest in ``golden/manifest.json`` runs once into a temporary
directory; each file is compared with its committed copy in ``golden/out``.
Config echoes, CSV headers, strings, integers and booleans must match
exactly, other numbers to 1e-9 relative, so a CPU whose libm rounds
differently in the last bits still passes.  Help texts are compared on the
Python minor version the corpus was made with, since argparse's layout
differs between versions.  Regenerate with ``python tests/golden/regen.py``;
``--diff`` prints what moved without rewriting the corpus.
"""

import importlib.util
import json
import math
import os
import re
import shutil
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(GOLDEN, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

MANIFEST = regen.manifest()
RUNS = [entry["out"] for entry in MANIFEST["runs"]]
HELPS = [regen.help_name(argv) for argv in MANIFEST["help"]]
RTOL = 1e-9
_INT = re.compile(r"-?\d+")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    dest = str(tmp_path_factory.mktemp("golden"))
    return dest, regen.run(dest)


def _read(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return fh.read()


def _close(want, got, where):
    """Floats to RTOL, everything else exactly, recursing into containers."""
    if isinstance(want, dict) and isinstance(got, dict):
        assert sorted(want) == sorted(got), where
        for key in want:
            _close(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(want) == len(got), where
        for k, (a, b) in enumerate(zip(want, got)):
            _close(a, b, f"{where}[{k}]")
    elif (isinstance(want, float) or isinstance(got, float)) \
            and not isinstance(want, bool) and not isinstance(got, bool):
        assert isinstance(want, (int, float)) and isinstance(got, (int, float)), where
        assert (math.isnan(want) and math.isnan(got)) or \
            math.isclose(want, got, rel_tol=RTOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(want) is type(got) and want == got, f"{where}: {got!r} != {want!r}"


def _cell(text):
    """A CSV cell as the value it prints: int, bool or float."""
    if _INT.fullmatch(text):
        return int(text)
    if text in ("true", "false"):
        return text == "true"
    return float(text)


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(corpus, name):
    dest, exits = corpus
    want, got = _read(GOLDEN, "out", name), _read(dest, name)
    if name.endswith(".csv"):
        want, got = want.splitlines(), got.splitlines()
        assert got[:2] == want[:2]  # version, config echo and header
        _close([[_cell(c) for c in row.split(",")] for row in want[2:]],
               [[_cell(c) for c in row.split(",")] for row in got[2:]], name)
        return
    want, got = json.loads(want), json.loads(got)
    if "report" in want:
        assert {k: got[k] for k in ("version", "config")} == \
            {k: want[k] for k in ("version", "config")}
        want, got = want["report"], got["report"]
    _close(want, got, name)


@pytest.mark.skipif(sys.version_info[:2] != tuple(MANIFEST["python"]),
                    reason="argparse lays out help differently on other versions")
@pytest.mark.parametrize("name", HELPS)
def test_help_matches_golden(corpus, name):
    dest, _ = corpus
    assert _read(dest, name) == _read(GOLDEN, "out", name)


def test_exit_codes_match_golden(corpus):
    _, exits = corpus
    assert exits == json.loads(_read(GOLDEN, "out", "exits.json"))


def test_differ_names_each_moved_field(tmp_path):
    want = os.path.join(GOLDEN, "out")
    got = tmp_path / "out"
    shutil.copytree(want, got)
    assert regen.diff(want, str(got)) == {}
    assert regen.diff_table({}).startswith("no change")
    path = got / "lemma22.json"
    doc = json.loads(path.read_text())
    doc["report"]["c_step0"] *= 1.0 + 1e-6
    doc["report"]["retained"][0] = not doc["report"]["retained"][0]
    path.write_text(json.dumps(doc))
    (got / "help.txt").write_text("usage: other\n")
    moved = regen.diff(want, str(got))
    assert set(moved) == {("lemma22.json", "report.c_step0"),
                          ("lemma22.json", "report.retained[]"),
                          ("help.txt", "(file)")}
    assert moved["lemma22.json", "report.c_step0"][1] == \
        pytest.approx(1e-6, rel=1e-3)
    assert moved["lemma22.json", "report.retained[]"][2] == 1
    assert "`report.c_step0`" in regen.diff_table(moved)
