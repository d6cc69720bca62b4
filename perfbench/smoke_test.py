#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/smoke_test.py

Runs a short pass of every workload, untraced and traced, and asserts
that the last line of each is the result object with every metric
BENCHMARK.json names, finite and labelled with its unit, and that the
traced run wrote a loadable Chrome trace. It then shows that the output
check catches a deliberately corrupted output (a buffer element on
exec_fused, a reply's buffer hash on serve_native), and that the
benchmark fails without printing a result in a directory that holds
only BENCHMARK.json and perfbench/. Exit code 0 when every check holds.
Takes a few minutes (every pass compiles native kernels).
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)
    return cond


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check_result(label, proc, result, wanted):
    if not check(proc.returncode == 0 and result is not None,
                 label + ": exit 0 with a JSON last line"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          label + ": exactly correct/attempted/failed/metrics")
    check(result["correct"] is True and result["failed"] == 0
          and isinstance(result["attempted"], int)
          and result["attempted"] >= 1,
          label + ": correct, nothing failed, something attempted")
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(wanted),
          label + ": exactly the %d metrics of BENCHMARK.json"
          % len(wanted))
    bad = [name for name, unit in wanted.items()
           if name not in metrics
           or not isinstance(metrics[name].get("value"), (int, float))
           or not math.isfinite(metrics[name]["value"])
           or metrics[name].get("unit") != unit]
    check(not bad, label + ": every value finite with its unit"
          + (" (bad: %s)" % ", ".join(bad[:5]) if bad else ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in [w["name"] for w in bench["workloads"]]:
        proc, result = run(w, 0)
        check_result(w + " --trace 0", proc, result, e2e)
        proc, result = run(w, 1)
        check_result(w + " --trace 1", proc, result, layers)
        trace = os.path.join(ROOT, ".bench_build",
                             "trace-%s-seed7.json" % w)
        try:
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            spans = [e for e in events if e.get("ph") == "X"]
            check(len(spans) > 0 and all(
                {"id", "parent", "request"} <= set(e["args"])
                for e in spans), w + ": Chrome trace with spans")
        except (OSError, ValueError, KeyError) as e:
            check(False, w + ": Chrome trace loads (%s)" % e)

    for w in ["exec_fused", "serve_native"]:
        proc, result = run(w, 0, "--corrupt-output")
        check(proc.returncode != 0 and result is not None
              and result["correct"] is False and result["failed"] >= 1,
              w + ": a corrupted output fails the run")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("compile_cold", 0, cwd=bare)
    check(proc.returncode != 0 and result is None,
          "without the sources: nonzero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d checks failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
