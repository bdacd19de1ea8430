#!/usr/bin/env python3
"""Builds and runs the PartIR end-to-end benchmark from the checkout root.

    python3 perfbench/run.py --workload train_step --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_infer --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

The benchmark is compiled from this checkout's sources into .bench_build/
(RelWithDebInfo), then run. Its last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metric names are checked
against BENCHMARK.json: end_to_end with --trace 0, per_layer with --trace 1.
A traced run also writes .bench_build/traces/<workload>-seed<n>.trace.json
(Chrome trace-event JSON), which is loaded back here before reporting.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("t32_partition", "train_step", "serve_infer")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target` incrementally."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", target, "--",
             f"-j{os.cpu_count() or 1}"],
            check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def check_trace(path):
    """True when `path` loads as Chrome trace-event JSON."""
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as error:
        log(f"trace {path} does not load: {error}")
        return False
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list) or not events:
        log(f"trace {path} has no traceEvents")
        return False
    open_requests = {}
    for event in events:
        if not all(key in event for key in ("name", "ph", "ts", "pid", "tid")):
            log(f"trace event without name/ph/ts/pid/tid: {event}")
            return False
        phase = event["ph"]
        if phase == "X" and not event.get("dur", -1) >= 0:
            log(f"complete event without a duration: {event}")
            return False
        if phase == "b":
            open_requests[event["id"]] = open_requests.get(event["id"], 0) + 1
        elif phase == "e":
            open_requests[event["id"]] = open_requests.get(event["id"], 0) - 1
        elif phase != "X":
            log(f"unexpected event phase {phase!r}")
            return False
    if any(open_requests.values()):
        log("unbalanced async request events")
        return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "api", "partir.h")):
        log(f"no partir sources under {ROOT}; run from a full checkout")
        return 2
    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        binary = build("partir_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    os.makedirs(TRACES, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", TRACES]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        log(f"benchmark exited with {run.returncode}")
        return 3

    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(reported.items()) ^ set(declared.items()))}")
        return 4
    if args.trace:
        trace_path = os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.trace.json")
        if not check_trace(trace_path):
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
