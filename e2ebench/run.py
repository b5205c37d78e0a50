#!/usr/bin/env python3
"""Builds and runs the whole-run simulator benchmark (see README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload table1-dense --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 1

The first call configures and builds a Release build of the repository's
ftbb library plus the benchmark in .bench_build/e2ebench; later calls only
rebuild what changed. Build output goes to .bench_build/e2ebench/build.log,
so the last line of stdout is the benchmark's JSON result. Spans of a
traced run and a JSON artifact with build provenance go to
.bench_build/e2ebench/out.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("table1-dense", "planetary-storm", "fault-corpus")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs],
    )
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
            except OSError as err:
                code = err
            if code != 0:
                sys.stderr.write(f"build failed ({code}); see {log_path}\n")
                sys.exit(1)
    return os.path.join(BUILD, "e2e_bench")


def run(binary, workload, args):
    """Runs one workload; returns its parsed JSON result line."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if args.smoke:
        cmd.append("--smoke")
    # A run measures for --seconds and then finishes its last pass; the
    # margin bounds a hung simulation, which subprocess then kills and reaps.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 150)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.stderr.write(f"{workload}: exit status {proc.returncode}\n")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(f"{workload}: no result line\n")
        sys.exit(1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the self-check")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run(binary, workload, args)


if __name__ == "__main__":
    main()
