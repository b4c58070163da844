#!/usr/bin/env python3
"""Builds the SmartFlux end-to-end benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--perturb 1]

Run from the root of a checkout. The first call configures and builds
perfbench/ (its own CMake project, which compiles ../src) in Release into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
check the build. Build output goes to standard error. The workload runs in
its own process; its last line of standard output, one JSON object, is the
result. The durable store's files live under .bench_data/ in the checkout
and are removed when the run ends.

Exits non-zero, without printing a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("http_ingest", "lrb_adaptive", "read_under_ingest")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "sfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "sfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", type=int, choices=(0, 1), default=0,
                        help="self-test: alter one value the output check reads")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    data_dir = os.path.join(ROOT, ".bench_data", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--perturb", str(args.perturb), "--data-dir", data_dir]
    # Set-up time is measured from here: the process's start.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        shutil.rmtree(data_dir, ignore_errors=True)
        return 1
    shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
