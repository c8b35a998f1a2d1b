#!/usr/bin/env python3
"""Builds and runs the zdc wall-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a zdc checkout. The first run configures and builds
perfbench/ in Release mode under .bench_build/perfbench (a few minutes);
later runs only confirm the build is current. Every run first executes the
statistics self-test. The benchmark's output is passed through; its last
line is the JSON result, whose metric names and units are checked against
BENCHMARK.json. When the build, the self-test, the run or that check fails,
the exit status is non-zero and no result is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def step(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if result.returncode != 0:
        fail(f"failed: {' '.join(cmd)}")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs, "--target", "zdc_perfbench",
          "zdc_perfbench_stats_test"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has the wrong keys")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("the result's metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    step([os.path.join(BUILD, "zdc_perfbench_stats_test")], 60)
    cmd = [os.path.join(BUILD, "zdc_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the run took over {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"the benchmark exited with status {run.returncode}")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
