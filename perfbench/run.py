#!/usr/bin/env python3
"""Builds and runs the CloudIQ benchmark.

    python3 perfbench/run.py --workload power-warm --seed 1 --seconds 6 --trace 0

Run from the repository root. The first run configures and builds the
engine libraries from src/ plus the benchmark binary into .bench_build/
(or $CARGO_TARGET_DIR); later runs reuse that build. The last line of
stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).

On top of the checks the binary makes inside one process, this wrapper
checks across runs of the same build:
  * the sim-side fingerprint (every sim metric and per-layer count) of a
    (workload, seed) pair must repeat exactly;
  * power-warm and scan-cold must return the same 22 query results for
    one seed (buffer-resident path against the object-store path).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("power-warm", "scan-cold", "commit-churn", "tenant-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {root}/src")
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "cloudiq_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "cloudiq_perfbench")
    return binary if os.path.isfile(binary) else None


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_repeat(path, value):
    """Returns False when `path` holds a different value from a past run."""
    if os.path.isfile(path):
        with open(path) as f:
            return f.read() == value
    with open(path, "w") as f:
        f.write(value)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 2
    state = os.path.join(root, target, "perfbench-state")
    runs = os.path.join(state, "runs", f"{args.workload}-{args.seed}")
    os.makedirs(runs, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", runs]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"benchmark run failed: {err}")
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"benchmark exited with {done.returncode}")
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no result")
        return 3

    build_id = file_sha(binary)
    problems = []
    for line in lines[:-1]:
        print(line)
        kind, _, value = line.partition(" ")
        if kind == "perfbench.fingerprint":
            path = os.path.join(
                state, f"fingerprint-{build_id}-{args.workload}-{args.seed}")
            if not check_repeat(path, value):
                problems.append("sim fingerprint differs from an earlier "
                                "run of this seed")
        elif kind == "perfbench.digests":
            path = os.path.join(state, f"digests-{build_id}-{args.seed}")
            if not check_repeat(path, value):
                problems.append("query results differ between power-warm "
                                "and scan-cold for this seed")
    if problems:
        for p in problems:
            log(p)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
