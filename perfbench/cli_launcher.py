"""Traced stand-in for ``python -m cocycle_lab.cli``.

Imports ``cocycle_lab.cli``, installs the tracing wrappers, then calls
``cli.dispatch`` with this process's arguments and exits with its return
code.  Writes the process's layer counters and self times to
``$BENCH_TRACE_OUT.json`` and its spans to ``$BENCH_TRACE_OUT.csv``.
Start-up is measured from ``$BENCH_SPAWN_T`` (a ``time.monotonic()`` reading
taken by the parent just before it started this process) until the CLI is
imported, which is when ``python -m cocycle_lab.cli`` would enter
``dispatch``; installing the wrappers is timed apart (``install_s``) and
counted as tracing overhead.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402  (this directory is sys.path[0])
from cocycle_lab import cli  # noqa: E402


def main():
    startup = time.monotonic() - float(os.environ["BENCH_SPAWN_T"])
    t0 = time.perf_counter()
    tracing.install()
    tr = tracing.TRACER
    install = time.perf_counter() - t0
    t0 = time.perf_counter()
    tr.active = True
    tr.enter(tracing.LAYERS.index("cli"))
    try:
        rc = cli.dispatch(sys.argv[1:])
    finally:
        tr.leave()
        tr.active = False
    dispatch = time.perf_counter() - t0
    out = os.environ["BENCH_TRACE_OUT"]
    tr.write_spans(out + ".csv")
    counts, self_s = tr.summary()
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump({"counts": counts, "self_s": self_s, "startup_s": startup,
                   "dispatch_s": dispatch, "install_s": install,
                   "spans": len(tr)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
