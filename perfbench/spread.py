"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --seconds 50 [--workloads dense paper]

Runs ``run.py --trace 0`` once per (workload, seed), one process at a time,
with seeds 1..N, by default on the workloads ``BENCHMARK.json`` lists.  For
every end-to-end metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median, and it
writes all runs to ``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=listed, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=50)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give a spread")

    runs = {}
    for name in args.workloads:
        runs[name] = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs[name].append(result)
            print(f"{name} seed {seed}: attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)

    import numpy

    report = {"python": platform.python_version(), "numpy": numpy.__version__, "machine": platform.machine(),
              "nproc": os.cpu_count(), "seconds": args.seconds, "runs": runs}
    for name, results in runs.items():
        print(f"\n{name}  ({len(results)} runs)")
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            print(f"  {metric:36s} {median:14.6g} {first['unit']:6s} IQR/median {spread:7.2%}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
