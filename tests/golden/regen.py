"""Regenerate the golden CLI corpus, or show what would change.

    python tests/golden/regen.py
    python tests/golden/regen.py --diff

runs every invocation of ``manifest.json`` in this process through
``cocycle_lab.cli.dispatch`` and rewrites ``out/``: each run's output
file, each ``--help`` text (as ``help[-verb...].txt``) and ``exits.json``,
the exit code of every invocation.  ``COCYCLE_LAB_CACHE`` is unset and
``COLUMNS`` fixed while it runs, so two runs give the same bytes.
``tests/test_golden.py`` runs the same manifest and compares.

``--diff`` runs the manifest into a temporary directory instead and
leaves ``out/`` alone.  It prints a markdown table with one row per file
and field that moved: the largest absolute and relative change of its
numbers (relative to the larger magnitude, as ``tests/test_golden.py``
compares them), and the count of its other values that flipped (booleans,
integers, strings, nulls, entries present on one side only, and help
texts).  List indices fold into ``[]``, so a field is one column of a
report; a CSV field is one column of the table.  When nothing moved it
prints one "no change" line.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from cocycle_lab import cli  # noqa: E402
from cocycle_lab.util import canonical_json  # noqa: E402


def manifest():
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def help_name(argv):
    return "-".join(["help"] + argv) + ".txt"


def run(dest):
    """Run the manifest into dest; returns {file name: exit code}."""
    spec = manifest()
    saved = {k: os.environ.get(k) for k in ("COCYCLE_LAB_CACHE", "COLUMNS")}
    os.environ.pop("COCYCLE_LAB_CACHE", None)
    os.environ["COLUMNS"] = str(spec["columns"])
    exits = {}
    try:
        for entry in spec["runs"]:
            argv = [tok.format(descriptors=os.path.join(ROOT, "descriptors"),
                               out=dest) for tok in entry["argv"]]
            exits[entry["out"]] = cli.dispatch(
                argv + ["--out", os.path.join(dest, entry["out"])])
        for argv in spec["help"]:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                exits[help_name(argv)] = cli.dispatch(argv + ["--help"])
            with open(os.path.join(dest, help_name(argv)), "w",
                      encoding="utf-8") as fh:
                fh.write(text.getvalue())
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    with open(os.path.join(dest, "exits.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(exits) + "\n")
    return exits


_ABSENT = object()  # the side of a pair that lacks an entry


def _document(path):
    """A golden file as a JSON-like value: a CSV as its comment line,
    header and one {column: cell} dict per row, a help text as a string."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.loads(text)
    if not path.endswith(".csv"):
        return text
    comment, header, *rows = text.splitlines()
    columns = header.split(",")
    return {"comment": comment, "header": header,
            "rows": [dict(zip(columns, map(_cell, row.split(","))))
                     for row in rows]}


def _cell(text):
    try:
        return json.loads(text)  # integers, floats, true and false
    except ValueError:
        return float(text)  # nan and inf as _fmt writes them


def _pairs(want, got, field):
    """(field, want, got) for every leaf of two documents, in step."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            yield from _pairs(want.get(key, _ABSENT), got.get(key, _ABSENT),
                              f"{field}.{key}" if field else key)
    elif isinstance(want, list) and isinstance(got, list):
        for a, b in itertools.zip_longest(want, got, fillvalue=_ABSENT):
            yield from _pairs(a, b, field + "[]")
    else:
        yield field, want, got


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(want_dir, got_dir):
    """{(file, field): [max abs, max rel, flipped]} of every field that
    moved between two corpus directories."""
    moved = {}
    for name in sorted(set(os.listdir(want_dir)) | set(os.listdir(got_dir))):
        sides = [_document(os.path.join(d, name))
                 if os.path.exists(os.path.join(d, name)) else _ABSENT
                 for d in (want_dir, got_dir)]
        for field, a, b in _pairs(*sides, ""):
            row = moved.setdefault((name, field or "(file)"), [0.0, 0.0, 0])
            if _is_number(a) and _is_number(b) and (
                    isinstance(a, float) or isinstance(b, float)):
                if math.isnan(a) or math.isnan(b):
                    row[2] += not (math.isnan(a) and math.isnan(b))
                    continue
                change = abs(b - a)
                row[0] = max(row[0], change)
                row[1] = max(row[1], change and change / max(abs(a), abs(b)))
            else:
                row[2] += a is _ABSENT or b is _ABSENT or a != b
    return {key: row for key, row in moved.items() if any(row)}


def diff_table(moved):
    """The markdown table of diff(), or one line when nothing moved."""
    if not moved:
        return "no change: every golden file matches"
    lines = ["| file | field | max abs change | max rel change | flipped |",
             "|---|---|---|---|---|"]
    for (name, field), (change, rel, flipped) in sorted(moved.items()):
        lines.append(f"| {name} | `{field}` | {change:.3g} | {rel:.3g} "
                     f"| {flipped} |")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description="Regenerate the golden "
                                     "CLI corpus, or show what would change.")
    parser.add_argument("--diff", action="store_true",
                        help="run into a temporary directory and print the "
                             "table of changes against out/")
    if parser.parse_args().diff:
        with tempfile.TemporaryDirectory() as dest:
            run(dest)
            print(diff_table(diff(OUT, dest)))
        return
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    exits = run(OUT)
    print(f"{len(exits)} invocations into {os.path.relpath(OUT)}; "
          f"nonzero exits: {[k for k, rc in exits.items() if rc] or 'none'}")


if __name__ == "__main__":
    main()
