#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady it is.

Usage, from the repository root:

    python3 perfbench/collect.py [--runs 10] [--first-seed 1]
                                 [--workloads a,b] [--out FILE]

For every workload of BENCHMARK.json this runs perfbench/run.py with
--trace 0 once per seed, then prints per end-to-end metric the median
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
a third of the metric's bound. With --out it writes the host block, the
per-run values and the summary as JSON. A run that fails or reports
correct: false makes the exit code nonzero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    host = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, host, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    host, ok, report = None, True, {}
    for workload in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, run_host, result = run_once(workload, seed,
                                              bench["run_seconds"])
            host = host or run_host
            if code != 0 or not result or not result["correct"]:
                ok = False
                print("%s seed %d FAILED (exit %d)" % (workload, seed, code))
                continue
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        summary = {}
        for m, v in values.items():
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[m] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[m],
                          "values": v}
            steady = "ok" if spread < bounds[m] / 3 else "WIDE"
            if m == "setup_s":
                steady = "(not checked)"
            print("%-14s %-12s median %12.5g  spread %6.2f%%  "
                  "third of bound %5.2f%%  %s"
                  % (workload, m, med, 100 * spread,
                     100 * bounds[m] / 3, steady))
        report[workload] = summary
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host, "runs": args.runs,
                       "first_seed": args.first_seed,
                       "run_seconds": bench["run_seconds"],
                       "workloads": report}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
