#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload sc-models --seeds 1-5 --seconds 15

For every workload, runs `perfbench/run.py` once per seed and prints, per
end-to-end metric, the median of the runs and the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of that median, beside the metric's bound from BENCHMARK.json. Also prints
each run's host reference-loop time, so host drift can be told apart from
spread in the program.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    host = re.search(r"host\.ref_ms before ([\d.]+) after ([\d.]+)", out.stdout)
    return json.loads(lines[-1]), host.groups() if host else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            result, host = run_once(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} host.ref_ms {host}",
                  flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "n/a"
            print(f"  {name:<34} median {med:<14.6g} spread {spread:<8} bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
