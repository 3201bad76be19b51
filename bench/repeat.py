#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarise each metric.

    python3 bench/repeat.py --workload scan --seeds 1-10 --seconds 30
    python3 bench/repeat.py --workload scan --seeds 1-3 --seconds 30 --trace 1

Runs one seed at a time from the repository root and prints, per metric,
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, plus the failed share of operations. The
uncalibrated times that run.py prints beside its result are summarised
too, as uncalibrated.<metric>.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values = {}
    shares = set()
    for seed in seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("uncalibrated:"):
                words = line.split()
                for name, value in zip(words[1:7:2], words[2:7:2]):
                    result["metrics"]["uncalibrated." + name] = {
                        "value": float(value), "unit": "s"}
        shares.add((result["failed"] / result["attempted"]))
        print(f"seed {seed} took {time.monotonic() - t0:.1f} s correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    print(f"failed share per run: {sorted(shares)}")
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        if len(vals) < 2:
            print(f"{name} [{unit}] median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name} [{unit}] median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
