#!/usr/bin/env python3
"""Run-to-run noise of the benchmark.

Runs the command of BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median of the runs and the
spread between their first and third quartiles as a share of that median
(Python's statistics.quantiles(values, n=4)), next to the metric's bound.
Run it from the repository root:

    python3 perfbench/stability.py --runs 10 [--workload grid-fp ...]

Pass --out FILE to keep every run's result line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    worst = 0.0
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True).stdout
            last = json.loads(out.strip().splitlines()[-1])
            if not last["correct"]:
                sys.exit(f"{w} seed {seed}: outputs wrong ({last['failed']} of {last['attempted']})")
            runs.append(last)
        record[w] = runs
        print(f"== {w}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:<20} median {med:12.4f}  spread {100 * spread:6.2f}%  "
                  f"bound {100 * bound:5.1f}%{flag}")
    print(f"worst spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
