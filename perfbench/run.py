#!/usr/bin/env python3
"""Builds mpfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py
        --workload <decision_support|bn_served|cyclic_approx>
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the mpfdb
library from ../src) into $CARGO_TARGET_DIR, or .bench_build when unset;
later calls rebuild incrementally. Build output goes to stderr. mpfbench's
stdout is passed through, so its last line is the result object. Exits
non-zero, without a result, when the build fails or mpfbench dies.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "mpfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "mpfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
