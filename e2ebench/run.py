#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload point-large --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no src/ next to e2ebench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(build_dir, "e2ebench_selftest")],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["point-large", "concurrent-wal",
                                 "multiview-bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except subprocess.CalledProcessError as err:
        sys.exit("e2ebench: build or selftest failed: %s" % err)

    scratch = os.path.join(build_dir, "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        result = subprocess.run(
            [os.path.join(build_dir, "e2ebench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--scratch", scratch])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
