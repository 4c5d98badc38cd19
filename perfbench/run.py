#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --calibrate     # rewrite perfbench/targets.json

Workloads: paper-grid, pruned-1000, jobs-open (see perfbench/README.md).
The build goes to .bench_build/ (CMake, Release); the first run builds it.
Build output goes to stderr, so the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when the build fails, a check fails or the run is
invalid.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
WORKLOADS = ("paper-grid", "pruned-1000", "jobs-open")


def build():
    """Configures once, then builds the benchmark and solver_cli incrementally."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        rc = subprocess.call(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return rc
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)


def commit_id():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short=12", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--calibrate", action="store_true",
                    help="measure the per-instance hypervolume targets and "
                         "write perfbench/targets.json")
    args = ap.parse_args()
    if not args.calibrate and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        print("run from the root of a checkout", file=sys.stderr)
        return 2

    rc = build()
    if rc != 0:
        print("build failed", file=sys.stderr)
        return rc or 1

    program = os.path.join(BUILD_DIR, "perfbench")
    cmd = [program, "--bench-dir", BENCH_DIR]
    if args.calibrate:
        cmd += ["--calibrate", "--commit", commit_id()]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--out-dir", os.path.join(BUILD_DIR, "out"),
                "--solver-cli",
                os.path.join(BUILD_DIR, "tsmo", "examples", "solver_cli")]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
