"""One benchmark process: set up, then (role ``measure``) run timed rounds.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON line
``{"setup_s": ...}`` when set-up ends (imports, input generation and one
untimed warm-up operation), then, in the ``measure`` role, one JSON line
with the raw timings, counts and check results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu():
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _layer_metrics(tracer, launches, round_wall, spans, overhead_per_call):
    """Per-layer metrics of one traced round (name -> (value, unit))."""
    counts, self_s = tracer.summary()
    startup = dispatch = install = 0.0
    for rec in launches:  # one CLI process each
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in rec["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        startup += rec["startup_s"]
        dispatch += rec["dispatch_s"]
        install += rec["install_s"]
        spans += rec["spans"]

    def c(name):
        return counts.get(name, 0)

    bands = c("cocycle.spectral.bands")
    out = {
        "cocycle.ode.solves": (c("cocycle.ode.calls"), "count"),
        "cocycle.ode.rhs_evals": (c("cocycle.ode.rhs_evals"), "count"),
        "cocycle.ode.self_s": (self_s["cocycle.ode"], "s"),
        "expr.calls": (c("expr.calls"), "count"),
        "expr.points": (c("expr.points"), "count"),
        "expr.self_s": (self_s["expr"], "s"),
        "cocycle.propagate.calls": (c("cocycle.propagate.calls"), "count"),
        "cocycle.propagate.energies": (c("cocycle.propagate.energies"), "count"),
        "cocycle.propagate.self_s": (self_s["cocycle.propagate"], "s"),
        "cocycle.spectral.calls": (c("cocycle.spectral.calls"), "count"),
        "cocycle.spectral.trace_evals": (c("cocycle.spectral.trace_evals"), "count"),
        "cocycle.spectral.trace_evals_per_band": (
            c("cocycle.spectral.band_scan_trace_evals") / bands if bands else 0.0,
            "count/band"),
        "cocycle.spectral.self_s": (self_s["cocycle.spectral"], "s"),
        "sl2.calls": (c("sl2.calls"), "count"),
        "sl2.matrices": (c("sl2.matrices"), "count"),
        "sl2.self_s": (self_s["sl2"], "s"),
        "labverify.self_s": (self_s["labverify"], "s"),
        "deform.calls": (c("deform.calls"), "count"),
        "deform.self_s": (self_s["deform"], "s"),
        "solenoid.calls": (c("solenoid.calls"), "count"),
        "solenoid.self_s": (self_s["solenoid"], "s"),
        "slowdeform.calls": (c("slowdeform.calls"), "count"),
        "slowdeform.self_s": (self_s["slowdeform"], "s"),
        "cli.startup_s": (startup, "s"),
        "cli.dispatch_s": (dispatch, "s"),
        "util.memo_hits": (c("util.memo_hits"), "count"),
        "util.memo_misses": (c("util.memo_misses"), "count"),
        "util.bytes_written": (c("util.bytes_written"), "B"),
        "trace.spans": (spans, "count"),
        "trace.wall_s": (round_wall, "s"),
        "trace.overhead_s": (spans * overhead_per_call + install, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--spawn-t", type=float, required=True)
    a = p.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    os.makedirs(a.run_dir, exist_ok=True)
    import workloads

    wl = workloads.WORKLOADS[a.workload](a.seed, a.run_dir, bool(a.trace))
    warm = wl.warmup()
    warm_out = wl.run(warm)
    print(json.dumps({"setup_s": time.monotonic() - a.spawn_t}), flush=True)
    if a.role == "setup":
        return 0

    problems = [f"warm-up: {m}" for m in wl.check(warm, warm_out)]
    if hasattr(wl, "launches"):
        wl.launches.clear()  # the traced round starts after the warm-up
    tracer = None
    if a.trace and isinstance(wl, workloads.LibraryWorkload):
        import tracing

        tracing.install()
        tracer = tracing.TRACER

    round_wall, round_cpu, op_ms = [], [], []
    attempted = failed = 0
    first_round = None
    t_start = time.perf_counter()
    r = 0
    while True:
        ops = wl.make_round(workloads.TIMED, r)
        first_round = first_round or ops
        results = []
        c0, w0 = _cpu(), time.perf_counter()
        for inp in ops:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.active = True
            try:
                results.append(wl.run(inp))
            except Exception as exc:  # counted; run.py then reports failure
                results.append(None)
                failed += 1
                print(f"op failed ({a.workload} round {r}): {exc!r}",
                      file=sys.stderr)
            finally:
                op_ms.append((time.perf_counter() - t0) * 1e3)
                if tracer is not None:
                    tracer.active = False
            attempted += 1
        round_wall.append(time.perf_counter() - w0)
        round_cpu.append(_cpu() - c0)
        if r == 0:
            # the package's piece caches grow with every operation up to
            # their caps, so peak RSS is taken over a fixed amount of work
            peak_kb = max(resource.getrusage(who).ru_maxrss for who in
                          (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        for inp, res in zip(ops, results):
            if res is not None:
                problems += [f"round {r}: {m}" for m in wl.check(inp, res)]
        r += 1
        elapsed = time.perf_counter() - t_start
        mean_round = sum(round_wall) / len(round_wall)
        if a.trace or elapsed + 0.5 * mean_round >= a.seconds:
            break
    problems += wl.finish(first_round)

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "round_wall": round_wall,
        "round_cpu": round_cpu,
        "op_ms": op_ms,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if a.trace:
        import tracing

        spans_path = os.path.join(a.run_dir, "spans.csv")
        tracer = tracing.TRACER
        tracer.write_spans(spans_path)
        result["layers"] = _layer_metrics(
            tracer, getattr(wl, "launches", []), round_wall[0],
            len(tracer), tracing.per_call_overhead())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
