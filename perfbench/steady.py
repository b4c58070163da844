#!/usr/bin/env python3
"""Steadiness of the benchmark: runs each workload repeatedly, one seed per
run, and prints per metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) against the bound
in BENCHMARK.json. The bounds are set from this output: a spread should stay
below a third of its bound (set-up time is exempt from that rule).

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads a,b] [--trace 0|1] [--json out.json]

Run from the root of a checkout; it calls perfbench/run.py for every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    all_results = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds, args.trace)
            results.append(r)
            print("  %s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, args.first_seed + i, r["correct"], r["attempted"], r["failed"]),
                file=sys.stderr)
        all_results[workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, all correct: %s, failed share: %s" % (
            workload, len(results), all(r["correct"] for r in results),
            ", ".join("%.6g" % s for s in shares)))
        print("  %-26s %12s %12s %12s %8s %6s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "ratio"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
            bound = m.get("bound")
            ratio = spread / bound if bound else None
            if ratio is not None and m["name"] != "setup_s":
                worst = max(worst, ratio)
            print("  %-26s %12.6g %12.6g %12.6g %8.4f %6s %6s" % (
                m["name"], med, q1, q3, spread, "%.2f" % bound if bound else "-",
                "%.2f" % ratio if ratio is not None else "-"))
    if not args.trace:
        print("\nlargest spread/bound (set-up time excluded): %.2f (target < 0.33)" % worst)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_results, f, indent=1)


if __name__ == "__main__":
    main()
