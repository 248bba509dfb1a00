#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it.

    python3 bench/e2e/run.py --workload churn --seed 1 --seconds 25 --trace 0

Run from the repository root.  The build goes to .bench_build/e2e (Release);
its output goes to stderr, so the benchmark's last stdout line stays its JSON
result.  Without --workload all four workloads run, each in its own process.
The exit code is the benchmark's; a failed build or a missing library source
tree exits 1 without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["churn", "insert_skew", "insert_async", "agm"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no streammpc source tree above bench/e2e")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        sys.stdout.flush()
        status = status or run(workload, args)
    sys.exit(status)


if __name__ == "__main__":
    main()
