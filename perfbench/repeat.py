#!/usr/bin/env python3
"""Run one workload k times and summarize every metric.

    python3 perfbench/repeat.py --workload serve_warm --runs 10 \
        [--seconds S] [--trace 0|1] [--first-seed N]

Each run goes through perfbench/run.py with its own seed (N, N+1, ...).
For each metric the summary gives the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median, which is what
the end-to-end bounds in BENCHMARK.json are checked against.  It also
prints the share of failed operations of every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values, units, fail_shares = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("run %d (seed %d) failed with exit code %d"
                  % (i, seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        fail_shares.append(result["failed"] / result["attempted"])
        print("seed %d: attempted %d failed %d correct %s  %s"
              % (seed, result["attempted"], result["failed"],
                 result["correct"],
                 " ".join("%s=%.5g" % (n, m["value"])
                          for n, m in result["metrics"].items())))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("\n%-28s %14s %14s %14s %8s  %s"
          % ("metric", "median", "q1", "q3", "spread", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-28s %14.6g %14.6g %14.6g %8.4f  %s"
              % (name, med, q1, q3, spread, units[name]))
    print("failed share per run: %s" % sorted(set(fail_shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
