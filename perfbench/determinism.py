#!/usr/bin/env python3
"""Check that the modeled (fabric-clock) metrics are deterministic.

Run from the repository root:

    python3 perfbench/determinism.py

ingest_zipf and gemv_ternary have a single driver thread and fixed
epoch cuts, so their modeled metrics must repeat exactly across runs of
one seed. A held-out seed must stay within each metric's bound in
BENCHMARK.json of the first seed. Every run uses BENCHMARK.json's
run_seconds, the configuration the benchmark reports. Exits non-zero on
any violation.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["ingest_zipf", "gemv_ternary"]
MODELED = ["fabric_ns_per_op", "fabric_critical_ns_per_op",
           "fabric_nj_per_op"]
SEED, HELD_OUT_SEED = 1, 7919


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    for wl in WORKLOADS:
        first, again, held = (run(wl, s, seconds)
                              for s in (SEED, SEED, HELD_OUT_SEED))
        for name in MODELED:
            a, b, h = (m[name]["value"] for m in (first, again, held))
            shift = abs(h - a) / a
            verdict = a == b and shift <= bounds[name]
            ok &= verdict
            print(f"{wl:14s} {name:27s} seed {SEED}: {a!r} / {b!r} "
                  f"(exact: {a == b}); seed {HELD_OUT_SEED}: {h!r} "
                  f"(shift {shift:.4f} <= {bounds[name]}) "
                  f"{'ok' if verdict else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
