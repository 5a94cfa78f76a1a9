#!/usr/bin/env python3
"""Repository benchmark: builds snap_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--corrupt-reference]

Run from the repository root. The first call configures and builds the
benchmark (and the SNAP libraries it links) into .bench_build/; later calls
rebuild incrementally. Build output goes to stderr; the benchmark's stdout is
passed through, and its last line is the JSON result. Each call runs one
workload in its own process tree, so peak RSS and the socket rendezvous
directory (.bench_run/) belong to that workload alone.

Workloads: sync_svm_n10k, gossip_churn_svm_n2k, uds2_mlp_n16 (see
perfbench/src/workload.cpp for their configurations and target losses).
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "snap_perfbench")
RUN_TIMEOUT_S = 160


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the SNAP sources (src/) are missing; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "snap_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    cmd += [flag for flag, on in (("--smoke", args.smoke),
                                  ("--corrupt-reference", args.corrupt_reference)) if on]
    sys.stdout.flush()
    # A session of its own, so a stuck run and its shard processes can be
    # stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # strays of a crashed run, if any
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
