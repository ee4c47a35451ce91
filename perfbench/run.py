#!/usr/bin/env python3
"""Builds and runs the end-to-end, layer-attributed benchmark.

    python3 perfbench/run.py --workload <wgs_stream|wgs_gz|svc_durable> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (which
compiles the library from src/) under $CARGO_TARGET_DIR, or .bench_build/
when that is unset, then runs perfbench_e2e. Build output goes to a log
file; the benchmark's own output is passed through, and its last line is
the JSON result. Exits non-zero, without a result, when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(source_dir, build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", source_dir, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], log,
                      BUILD_TIMEOUT_S) != 0:
            return None, log
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                   "-j", jobs], log, BUILD_TIMEOUT_S) != 0:
        return None, log
    return os.path.join(build_dir, "perfbench_e2e"), log


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary, log = build(source_dir, build_root)
    except subprocess.TimeoutExpired:
        binary, log = None, os.path.join(build_root, "perfbench-build.log")
    if binary is None:
        sys.stderr.write("perfbench: build failed; see %s\n" % log)
        if os.path.exists(log):
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-20:]))
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "perfbench-work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write("perfbench: no JSON result on the last line\n")
        return 4
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
