#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

For each workload it runs the benchmark twice on a short run: once as is,
which must report correct=true, and once with --perturb 1, which alters one
value the check reads (never the program) and must report correct=false:

  http_ingest        the expected last value of one sensor cell
  lrb_adaptive       one reference cell of the last tolerant step's output
  read_under_ingest  two keys of the first streamed scan, and one /get value

    python3 perfbench/selftest.py [--seconds 3] [--seed 7]

Exits 0 when every check behaves as it should.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("http_ingest", "lrb_adaptive", "read_under_ingest")


def correct(workload, seed, seconds, perturb):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--perturb", str(perturb)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().split("\n")
    for line in lines[:-1]:
        if line.startswith("CHECK FAILED"):
            print("    " + line)
    return json.loads(lines[-1])["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        plain = correct(workload, args.seed, args.seconds, 0)
        perturbed = correct(workload, args.seed, args.seconds, 1)
        good = plain and not perturbed
        ok = ok and good
        print("%-18s unperturbed correct=%s, perturbed correct=%s: %s" % (
            workload, plain, perturbed, "ok" if good else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
