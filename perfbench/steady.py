"""Steadiness check: run workloads over several seeds, report spreads.

    python3 perfbench/steady.py --runs 10 --seconds 20 \\
        [--workloads verify_case_study ...] [--first-seed 1]

For each workload, runs ``perfbench/run.py`` once per seed (seeds
``first-seed .. first-seed + runs - 1``) and prints, per end-to-end
metric, the median over runs and the interquartile range as a share
of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``: "steady" under a third of the
bound, "within bound" up to it, "OVER BOUND" beyond it (which also
makes the exit code 1).  Every run's full result stays in
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed ops",
              flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            share = spread(values)
            if share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                steady = False
            print(f"  {name:18s} median {statistics.median(values):12.5g}"
                  f"  spread {share:7.2%}  bound {bound:5.0%}"
                  f"  {verdict}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
