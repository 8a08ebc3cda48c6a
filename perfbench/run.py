#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-recurring --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The program's libraries (src/) and the benchmark program are built with
CMake into .bench_build/ on the first run and brought up to date on every
later one; build output goes to stderr. The workload runs in its own
process, single-threaded, and its last stdout line is the result JSON.
A traced run (--trace 1) also writes Chrome trace-event JSON to
.bench_build/traces/. --smoke runs the benchmark's own self-test: every
check against good and deliberately perturbed inputs, and every workload
at a reduced size.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bohr_perfbench")
WORKLOADS = ("serve-recurring", "prepare-bulk", "churn-faults")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources (src/CMakeLists.txt) under "
                 + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.smoke and not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    build()
    name = "smoke" if args.smoke else args.workload
    work = os.path.join(BUILD, "work", "%s-%d" % (name, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        if args.smoke:
            return run([BINARY, "--self-test", "--work-dir", work], 600)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        return run(cmd, args.seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
