#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

Run from the repository root:

    python3 benchmark/run.py --workload steady_rate --seed 1 --seconds 30 --trace 0

The runner (benchmark/runner, a Cargo package of its own) is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Its output
is relayed to stdout, followed by a table of every metric with its unit
and direction; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Metric names and units are checked
against BENCHMARK.json: end_to_end with --trace 0, per_layer with
--trace 1. Any build failure, crash, timeout or malformed result exits
non-zero without printing a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "runner", "Cargo.toml")
BINARY = "essat-repo-bench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", MANIFEST]
    # Cargo's progress goes to stderr so stdout ends with the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(target, "release", BINARY)


def declared_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"runner exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("runner printed no JSON result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)} are not correct/attempted/failed/metrics")
    spec = declared_metrics(args.trace)
    got = result["metrics"]
    if [(m["name"], m["unit"]) for m in spec] != [(k, v["unit"]) for k, v in got.items()]:
        fail(f"metrics differ from BENCHMARK.json: got {[(k, v['unit']) for k, v in got.items()]}")
    table = [
        f"  {m['name']:<36} {got[m['name']]['value']:>16.6f} {m['unit']:<6} ({m['better']} is better)"
        for m in spec
    ]
    sys.stdout.write("\n".join(lines[:-1] + table + lines[-1:]) + "\n")


if __name__ == "__main__":
    main()
