#!/usr/bin/env python3
"""Build and run the Molecule simulator benchmark.

Usage, from the repository root:

    python3 molbench/run.py --workload overload_warm --seed 1 \
        --seconds 20 --trace 0

Configures and builds molbench/ (Release) into .bench_build/ at the
repository root, then runs the benchmark binary with the same
arguments. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
simulator sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "molbench")


def build():
    """Configure once, then build incrementally; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("molbench: simulator sources (src/) not found in " + ROOT,
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("molbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
