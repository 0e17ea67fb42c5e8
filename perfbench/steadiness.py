#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 15] [workload ...]

Runs each workload (default: the three BENCHMARK.json lists) once per
seed 1..runs through run.py and prints, for every end-to-end metric, the
median and the spread (Q3 - Q1) / median of the runs, with the quartiles
Python's statistics.quantiles(values, n=4) gives. These are the noise floors
recorded in NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("workloads", nargs="*", default=["paper", "serve", "live"])
    args = parser.parse_args()
    for workload in args.workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}")
                return 1
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            print(f"{workload:6} {name:16} median {median:12.4f}  spread {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
