#!/usr/bin/env python3
"""Build and run the vermem benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-sim --seed 1 --seconds 15 --trace 0

Builds `perfbench/` (its own Cargo package over the repository's crates)
into $CARGO_TARGET_DIR (default `.bench_build`), generates the workload's
corpus for the seed unless a matching one is cached there, then runs the
measurement. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Any build, generation or
run error exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("verify-sim", "verify-plain", "verify-reuse", "sc-models", "serve-stream")
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(target, "release", "vermem-perfbench")
    corpus = os.path.join(target, "perfbench-corpus", f"{args.workload}-seed{args.seed}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", corpus]
    sys.stdout.flush()
    # Generation runs in its own process so it never shows in the measured
    # process's peak resident memory.
    if subprocess.run([binary, "gen", *common]).returncode != 0:
        sys.exit("perfbench: corpus generation failed")
    sys.stdout.flush()
    run = subprocess.run(
        [binary, "run", *common, "--seconds", str(args.seconds), "--trace", args.trace]
    )
    if run.returncode != 0:
        sys.exit("perfbench: run failed")


if __name__ == "__main__":
    main()
