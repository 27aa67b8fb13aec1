#!/usr/bin/env python3
"""Builds the collector and the perfbench binary, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload replay-ast --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset.
With --trace 1 the spans of the run are written as Chrome trace-event
JSON to <build dir>/traces/<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is nonzero when a
build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["replay-ast", "replay-web-free", "live-graph", "programT-sparc"]
# A run measures for --seconds and then sets up and checks; this bounds
# the whole run so that a hung workload cannot hold the caller.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the collector sources (src/) are missing; "
                 "run from the root of a full checkout")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "2"], stdout=log, check=True)
    return os.path.join(build_dir, "perfbench")


def run_one(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed last line or None,
    output lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    return proc.returncode, result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed: {err}")

    if args.workload != "all":
        code, result, lines = run_one(binary, build_dir, args.workload,
                                      args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        return code if result is not None else (code or 1)

    # Every workload in turn, then one table of all metrics.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    status = 0
    for workload in WORKLOADS:
        code, result, lines = run_one(binary, build_dir, workload, args.seed,
                                      args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        if result is None or code != 0:
            status = 1
            summary["correct"] = False
        if result is None:
            continue
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
    print()
    print(f"{'workload':<16} {'metric':<28} {'value':>14} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<28} {value:>14.6g} {unit}")
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
