#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] \
        [--workloads replay_mlp,serve_http]

Runs every workload `--runs` times, each with another seed, at the
`run_seconds` of BENCHMARK.json, and prints for each end-to-end metric
its median and its spread: the distance between the first and third
quartiles of the runs (statistics.quantiles(values, n=4)) as a share of
the median, beside the metric's bound and a third of it. Exits 1 when
a run fails or reports a failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:24s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f} (/3 {bounds[name] / 3:.4f})"
                  f"{mark}")
            print("    runs: " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
