"""Regenerate the reference figures quoted in README.md; run from the
repository root:

    python3 perfbench/reference.py > perfbench/out/reference.md

For each of ``SETS`` sets and each workload it runs ``run.py`` once per seed
(set k uses seeds 1000 k + 1 .. 1000 k + ``RUNS``) with ``run_seconds`` from BENCHMARK.json, and
prints the first quartile, median and third quartile of every end-to-end
metric and their spread (Q3 - Q1) / median, as ``statistics.quantiles``
gives them.  It then makes two traced runs per workload with seed 7, prints
the per-layer figures and says whether every count repeated exactly.  The
whole run takes about 40 minutes on a 2-core box.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

SETS, RUNS = 2, 10
TIME_UNITS = ("s", "ms")
TRACE_SEED = 7


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| set | workload | metric | Q1 | median | Q3 | spread | bound | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|---|")
    for k in range(1, SETS + 1):
        for w in workloads:
            vals, attempted, failed = {}, 0, 0
            for seed in range(1000 * k + 1, 1000 * k + RUNS + 1):
                res = _run(w, seed, seconds, 0)
                print(w, seed, json.dumps(res), file=sys.stderr, flush=True)
                if not res["correct"]:
                    raise SystemExit(f"{w} seed {seed}: a correctness check failed")
                attempted += res["attempted"]
                failed += res["failed"]
                for name, m in res["metrics"].items():
                    vals.setdefault(name, []).append(m["value"])
            for name, v in vals.items():
                q1, med, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                print(f"| {k} | {w} | {name} | {q1:.4g} | {med:.4g} | {q3:.4g} "
                      f"| {(q3 - q1) / med:.3f} | {bounds[name]} | {failed}/{attempted} |",
                      flush=True)

    print()
    print("| workload | metric | unit | traced run 1 | traced run 2 |")
    print("|---|---|---|---|---|")
    for w in workloads:
        a = _run(w, TRACE_SEED, seconds, 1)["metrics"]
        b = _run(w, TRACE_SEED, seconds, 1)["metrics"]
        same = all(a[n]["value"] == b[n]["value"] for n in a
                   if a[n]["unit"] not in TIME_UNITS)
        for name in a:
            print(f"| {w} | {name} | {a[name]['unit']} | {a[name]['value']:.6g} "
                  f"| {b[name]['value']:.6g} |")
        print(f"| {w} | counts identical | | {same} | |", flush=True)


if __name__ == "__main__":
    main()
