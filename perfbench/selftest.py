#!/usr/bin/env python3
"""Self-test of the engine benchmark.

Runs engine_bench at tiny scale (m <= 2^12, two seconds) on every workload,
untraced and traced, and checks that

  - the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, correct and nothing failed;
  - every metric BENCHMARK.json declares is printed with its unit, both in
    the JSON result and on a "# <name> <value> <unit> n=<samples>" line;
  - a run whose oracle expectation is corrupted (--corrupt-oracle) reports
    correct: false and exits nonzero.

Usage: selftest.py --binary <engine_bench> --work-dir <dir>
(ctest --test-dir .bench_build runs it after perfbench/run.py has built.)
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run(binary, work_dir, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--tiny", "--work-dir", work_dir, *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output; stderr: {done.stderr}")
    return done.returncode, json.loads(lines[-1]), lines[:-1]


def check_result(label, result, printed, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = set(declared) - set(metrics)
        extra = set(metrics) - set(declared)
        raise AssertionError(f"{label}: missing {sorted(missing)}, "
                             f"undeclared {sorted(extra)}")
    for name, unit in declared.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise AssertionError(f"{label}: {name} printed as {m}, want unit {unit}")
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} value {m['value']!r}")
        if not any(line.split()[1:2] == [name] and unit in line.split()
                   for line in printed if line.startswith("# ")):
            raise AssertionError(f"{label}: no '# {name} <value> {unit}' line")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{w} trace={trace}"
            code, result, printed = run(args.binary, args.work_dir, w, trace)
            if code != 0 or result["correct"] is not True or result["failed"]:
                raise AssertionError(f"{label}: exit {code}, result {result}")
            check_result(label, result, printed, declared)
            print(f"ok   {label}: {len(declared)} metrics")
        code, result, _ = run(args.binary, args.work_dir, w, 0,
                              ["--corrupt-oracle"])
        if code == 0 or result["correct"] is not False:
            raise AssertionError(f"{w}: corrupted oracle went unnoticed "
                                 f"(exit {code}, correct {result['correct']})")
        print(f"ok   {w}: corrupted oracle fails the run (exit {code})")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
