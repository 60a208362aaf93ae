#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/DESIGN.md).

Run from the repository root:

    python3 perfbench/run.py --workload ingest_zipf --seed 1 \
        --seconds 10 --trace 0

The benchmark is built from source with CMake into the directory named
by CARGO_TARGET_DIR (default .bench_build) under the repository root;
build output goes to stderr. `--workload all` runs every workload in
turn. The last line of stdout is the benchmark's JSON result; the exit
status is the benchmark's (non-zero on any output that differs from
its host reference, or when the build fails).
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["ingest_zipf", "ingest_mixed_sign", "gemv_ternary"]
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # subprocess.run kills and reaps its child when interrupted by an
    # exception; turn SIGTERM into one so the benchmark never outlives
    # this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_root, "perfbench-artifacts")
    os.makedirs(out_dir, exist_ok=True)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} timed out", file=sys.stderr)
            rc = 1
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
