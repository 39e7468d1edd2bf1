#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload replay_mlp --seed 1 --seconds 10 \
        --trace 0

The library and the benchmark binary are built from source into
`.bench_build/perfbench` (CMake, Release). The binary then runs one
workload in one process with a scrubbed environment: every `MAN_*`
variable is removed so backend, conv-tile, QoS-ladder and plan-cache
overrides cannot leak into the measured program. The last line of
standard output is the result JSON; build output goes to standard
error. Exits non-zero without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MAN_")}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env())
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        # The binary removes its own scratch directory; this catches a
        # crash that skipped that.
        shutil.rmtree(work, ignore_errors=True)
    # A failed run's output goes to standard error, so no result line
    # reaches standard output.
    out = sys.stdout if done.returncode == 0 else sys.stderr
    out.buffer.write(done.stdout)
    out.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
