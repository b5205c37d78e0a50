#!/usr/bin/env python3
"""Smoke-size self-check of the whole-run benchmark.

Runs every workload named in BENCHMARK.json at small size, untraced and
traced, and fails unless each run ends with a well-formed result line that
emits exactly the metrics BENCHMARK.json names, each with its unit and a
finite value. Run from the repository root:

    python3 e2ebench/self_check.py
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, trace):
    """Returns a list of problems with one smoke run."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']}")
    got = result["metrics"]
    for name in sorted(set(expected) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name in sorted(set(expected) & set(got)):
        value, unit = got[name].get("value"), got[name].get("unit")
        if unit != expected[name]:
            problems.append(f"{name}: unit {unit}, BENCHMARK.json says "
                            f"{expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} --trace {trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
