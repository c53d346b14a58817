#!/usr/bin/env python3
"""End-to-end benchmark of CDB crowd queries.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_cdb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the repository's src/ libraries it needs) into
.bench_build/perfbench, runs one workload in one `perfbench` process and prints
its result object as the last line of stdout. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. BENCHMARK.json lists both,
and this script refuses a result whose metric names differ from it. Exits
non-zero, printing no result, when the build, the run or that check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(target):
    """Configures once and builds `target`; all cmake output goes to stderr."""
    for attempt in range(2):
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", target,
                      "--parallel", "4"])
        ok = all(subprocess.run(step, stdout=sys.stderr).returncode == 0
                 for step in steps)
        if ok:
            return os.path.join(BUILD, target)
        if attempt == 0 and os.path.isdir(BUILD):
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(BUILD)
    return None


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def valid(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)) or \
                not math.isfinite(metric["value"]):
            return "metric %s is not a finite number" % name
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        return "metrics differ from BENCHMARK.json: %s vs %s" % (
            sorted(got.items()), sorted(expected.items()))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        return 1 if test is None else subprocess.run([test]).returncode
    if not args.workload:
        parser.error("--workload is required")

    program = build("perfbench")
    if program is None:
        log("perfbench: build failed")
        return 1
    data_dir = os.path.join(ROOT, ".bench_build", "perfbench-data",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        proc = subprocess.run(
            [program, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data-dir", data_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: program exited with %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not JSON: %r" % lines[-1])
        return 1
    problem = valid(result, args.trace == 1)
    if problem:
        log("perfbench: " + problem)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
