#!/usr/bin/env python3
"""The benchmark's own test: counts repeat exactly for one seed.

Runs every workload of BENCHMARK.json twice per mode with the same seed
(short runs) and asserts that each run is correct, prints exactly the
metrics BENCHMARK.json lists for its mode (names and units), and that the
counts fixed by the seed repeat bit for bit: retrievals_per_op in the
untraced run, core.master_entries_per_op in the traced run. Run from the
root of a checkout:

    python3 perfbench/test_repeat.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = {"0": "retrievals_per_op", "1": "core.master_entries_per_op"}


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", trace]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {result.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, name in EXACT.items():
            first, second = run(workload, 7, trace), run(workload, 7, trace)
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAIL {workload} trace={trace}: incorrect run")
                    failures += 1
                printed = {printed_name: metric["unit"] for printed_name,
                           metric in result["metrics"].items()}
                if printed != listed[trace]:
                    print(f"FAIL {workload} trace={trace}: metrics differ "
                          "from BENCHMARK.json")
                    failures += 1
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "FAIL"
            failures += a != b
            print(f"{status} {workload} {name}: {a!r} vs {b!r}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
