"""Run every workload, end-to-end and traced, over a few seeds and tabulate the metrics.

    python3 bench/report.py --seeds 1

Each run is a separate `bench/run.py` process of its default length. For every
workload and metric the table gives the unit, the median over the seeds and,
with two or more seeds, the quartiles and their distance as a share of the
median: the spread that BENCHMARK.json's bounds are compared with.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            results = [run(workload, seed, trace) for seed in seeds]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            all_correct &= all(r["correct"] for r in results)
            print(f"\n{workload}  trace={trace}  seeds={args.seeds}  "
                  f"requests={attempted}  failed={failed}")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                line = f"  {name:32s} {first['unit']:12s} {median:<14.6g}"
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = (q3 - q1) / median if median else 0.0
                    line += f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
                print(line, flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
