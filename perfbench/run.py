#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

The first call configures and compiles a Release build under .bench_build/;
later calls only re-check it. Build output goes to stderr, so the last line
of stdout is the program's JSON result line. Every flag is passed through to
the program (see main.cc for the full list); traced runs write their Chrome
trace to .bench_build/traces/ unless --trace-dir says otherwise.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Traced runs write <workload>.trace.json (Chrome trace-event format) here.
TRACES = os.path.join(ROOT, ".bench_build", "traces")
# A run measures for --seconds (at most 60) plus set-up; anything near this
# is a hang, and the program is stopped rather than left running.
RUN_TIMEOUT_S = 170


def build():
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            sys.exit(f"perfbench: {required} not found at {ROOT}; "
                     "run from a full checkout of the repository")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-dir", TRACES]
    try:
        result = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run did not finish within {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
