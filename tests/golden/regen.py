"""Regenerate the golden CLI corpus.

    python tests/golden/regen.py

runs every invocation of ``manifest.json`` in this process through
``cocycle_lab.cli.dispatch`` and rewrites ``out/``: each run's output
file, each ``--help`` text (as ``help[-verb...].txt``) and ``exits.json``,
the exit code of every invocation.  ``COCYCLE_LAB_CACHE`` is unset and
``COLUMNS`` fixed while it runs, so two runs give the same bytes.
``tests/test_golden.py`` runs the same manifest and compares.
"""

import contextlib
import io
import json
import os
import shutil
import sys

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


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    exits = run(OUT)
    print(f"{len(exits)} invocations into {os.path.relpath(OUT)}; "
          f"nonzero exits: {[k for k, rc in exits.items() if rc] or 'none'}")


if __name__ == "__main__":
    main()
