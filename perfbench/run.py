"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload continuum-spectra --seed 1 \\
        --seconds 45 --trace 0

Workloads: continuum-spectra, cli-discrete (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced round with ``--trace 1``.

This process imports only the standard library.  It starts the worker
processes one at a time: with ``--trace 0``, ``SETUP_RUNS - 1`` set-up-only
workers, then the measuring worker, so ``setup_s`` is a median of
``SETUP_RUNS`` set-ups.  Peak RSS is the largest of any process during
set-up and the first timed round.
Exits 1 when a correctness check or an operation fails, 2 when the package
source is missing or a worker fails or passes its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("continuum-spectra", "cli-discrete")
SETUP_RUNS = 3
SETUP_ALLOWANCE_S = 25.0  # per set-up; the measuring worker gets 2 x --seconds more


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker(args, role, run_dir, deadline):
    spawn = time.monotonic()
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role, "--run-dir", run_dir, "--spawn-t", repr(spawn)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} worker passed the run's deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be nonnegative")
    deadline = (time.monotonic() + SETUP_RUNS * SETUP_ALLOWANCE_S
                + 2.0 * args.seconds)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "cocycle_lab", "__init__.py")):
        return _fail("src/cocycle_lab not found; run from a source checkout")
    os.chdir(root)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    run_dir = os.path.join("perfbench", "out", tag)
    shutil.rmtree(run_dir, ignore_errors=True)

    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                lines = _worker(args, "setup", os.path.join(run_dir, f"setup{i}"),
                                deadline)
                setups.append(lines[0]["setup_s"])
        setup_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        lines = _worker(args, "measure", run_dir, deadline)
    except (RuntimeError, IndexError, KeyError, ValueError) as exc:
        return _fail(str(exc))
    setups.append(lines[0]["setup_s"])
    res = lines[-1]
    if not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)

    for msg in res["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    rounds = len(res["round_wall"])
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(res["round_wall"]) / rounds, "unit": "s"},
            "cpu_s": {"value": sum(res["round_cpu"]) / rounds, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(res["op_ms"]),
                          "unit": "ms"},
            "peak_rss_mb": {"value": max(setup_peak_kb / 1024.0,
                                         res["peak_rss_mb"]), "unit": "MB"},
        }
    if res["failed"]:
        print(f"{res['failed']} of {res['attempted']} operations failed",
              file=sys.stderr)
    correct = not res["problems"] and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
