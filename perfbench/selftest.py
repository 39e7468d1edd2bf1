#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. A short untraced run of every workload must be correct, with no
   failed operation, and print exactly the end-to-end metrics of
   BENCHMARK.json, each with its unit and a finite value above zero.
2. A short traced run of every workload must print exactly the
   per-layer metrics, with their units, and write its spans.
3. Negative case: with every expected output deliberately wrong
   (--corrupt-reference), every workload must report failed
   operations and correct=false, so the gate fails on broken code.
4. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the benchmark must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SECONDS = "1"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=cwd,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    info = {}
    if len(lines) >= 2:
        info = json.loads(lines[-2]).get("info", {})
    return done.returncode, result, info


def check_metrics(label, result, expected):
    got = result["metrics"]
    check(set(got) == set(expected),
          f"{label}: metric names match BENCHMARK.json "
          f"(missing {sorted(set(expected) - set(got))}, "
          f"extra {sorted(set(got) - set(expected))})")
    for name, unit in expected.items():
        if name in got:
            check(got[name]["unit"] == unit,
                  f"{label}: {name} unit {got[name]['unit']!r} == {unit!r}")
            value = got[name]["value"]
            check(isinstance(value, (int, float)) and math.isfinite(value),
                  f"{label}: {name} is a finite number")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    for w in workloads:
        code, result, _ = run(w, 0)
        check(code == 0 and result is not None, f"{w}: untraced run exits 0")
        if result is None:
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{w}: result keys")
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1,
              f"{w}: correct with zero failed of {result['attempted']}")
        check_metrics(f"{w} untraced", result, e2e)
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{w}: every end-to-end metric above zero")

    for w in workloads:
        code, result, info = run(w, 1)
        check(code == 0 and result is not None, f"{w}: traced run exits 0")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0,
              f"{w}: traced run correct")
        check_metrics(f"{w} traced", result, layers)
        trace_file = info.get("trace_file", "")
        spans = []
        if trace_file and os.path.exists(trace_file):
            with open(trace_file) as f:
                spans = json.load(f)["spans"]
        names = {s["name"] for s in spans}
        check({"EngineCache::get", "artifact::load_engine",
               "BatchRunner::run", "FixedNetwork::infer_into",
               "KernelBackend::accumulate_dense", "http.request",
               "server.queue", "server.compute"} <= names,
              f"{w}: trace file has spans of every layer")
        check(all({"id", "name", "group", "parent", "start_ns", "end_ns"}
                  <= set(s) and s["end_ns"] >= s["start_ns"] for s in spans),
              f"{w}: every span has name, ids, start <= end")

    for w in workloads:
        code, result, _ = run(w, 0, ["--corrupt-reference"])
        check(code == 0 and result is not None
              and not result["correct"] and result["failed"] > 0,
              f"{w}: wrong expected outputs are reported as failed "
              f"operations")

    bare = os.path.join(".bench_build", "perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workloads[0],
           "--seed", "1", "--seconds", SECONDS, "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "without the repository's sources the benchmark fails without "
          "a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
