#!/usr/bin/env python3
"""Builds and runs the engine benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 15 --trace 0

--workload all runs the three workloads one after another.

Configures and builds perfbench/ (touch_core from src/, the driver and the
unit tests of its arithmetic) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs those unit tests, then runs the driver. The last
line of standard output is the driver's JSON result. Exits non-zero without a
result when the build, the unit tests or the driver fail.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cold", "sharded_warm", "dynamic_mixed")
# A run measures --seconds twice at most (traced runs) plus set-up and the
# reference joins; anything beyond this is a hang.
RUN_TIMEOUT_S = 170


def step(cmd, timeout=None):
    """Runs one build or test step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        sys.exit("perfbench: step failed (%d): %s" %
                 (result.returncode, " ".join(cmd)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", "4"])
    step([os.path.join(build, "bench_math_test"), "--gtest_brief=1"],
         timeout=60)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [os.path.join(build, "engine_bench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                    timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: engine_bench exceeded %d s" % RUN_TIMEOUT_S)
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
        if result.returncode != 0:
            sys.exit("perfbench: engine_bench exited with %d" %
                     result.returncode)


if __name__ == "__main__":
    main()
