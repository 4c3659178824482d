#!/usr/bin/env python3
"""Build the falkon benchmark from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload burst --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the falkon libraries
it links from src/) into .bench_build/; later calls rebuild incrementally.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Everything the benchmark writes stays under .bench_build/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(target, env):
    """Configure (once) and build `target`; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {' '.join(step)}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["burst", "paced", "durable"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helpers' self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    tmp = os.path.join(WORK, "tmp")
    journals = os.path.join(WORK, "journals")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(journals, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    target = "perfbench_selftest" if args.self_test else "falkon_perfbench"
    if not build(target, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, target)]
    if not args.self_test:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--journals", journals]
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(journals, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
