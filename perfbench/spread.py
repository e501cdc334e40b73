#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload dashboard --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of that median (what
BENCHMARK.json's `bound` is compared against), next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])

    values = {}
    for seed in parse_seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", args.trace]
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}")
        result = json.loads(lines[-1])
        brief = " ".join(f"{name}={metric['value']:.6g}"
                         for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{brief}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':40s} {'median':>14s} {'iqr/median':>11s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        print(f"{name:40s} {median:14.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
