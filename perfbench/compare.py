"""Compare two sets of benchmark results, refusing mismatched configs.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory is a ``.bench_build/perfbench/results`` directory (one
JSON file per run).  For every workload present in both, prints the
median of each end-to-end metric on each side and the change as a
share of the base, against the metric's bound in ``BENCHMARK.json``.

Results whose pinned configuration differs — resolved zone backend,
native kernel built or not, abstraction, jobs, Python or numpy
version, core count — are not comparable (the native kernel alone
moves ``verify_case_study`` from ~13 s to ~5 s), so the comparison is
refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

PINNED = ("resolved_backend", "native_built", "abstraction", "jobs",
          "python", "numpy", "nproc")


def load(directory: Path) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]].append(result)
    return runs


def mismatches(base: list[dict], new: list[dict]) -> list[str]:
    """Pinned settings that differ between (or within) the two sides."""
    problems = []
    for key in PINNED:
        seen = {json.dumps(r["config"].get(key)) for r in base + new}
        if len(seen) > 1:
            problems.append(f"{key}: {sorted(seen)}")
    return problems


def compare(base_dir: Path, new_dir: Path, spec: dict) -> int:
    base, new = load(base_dir), load(new_dir)
    workloads = sorted(set(base) & set(new))
    refused = False
    for workload in workloads:
        problems = mismatches(base[workload], new[workload])
        if problems:
            refused = True
            print(f"{workload}: REFUSED, configurations differ: "
                  + "; ".join(problems))
    if refused:
        return 2
    for workload in workloads:
        print(f"{workload} ({len(base[workload])} vs "
              f"{len(new[workload])} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = statistics.median(r["metrics"][name]["value"]
                                    for r in base[workload])
            cur = statistics.median(r["metrics"][name]["value"]
                                    for r in new[workload])
            change = (cur - old) / old if old else float("inf")
            worse = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if worse > metric["bound"] else "ok"
            print(f"  {name:18s} {old:12.5g} -> {cur:12.5g} "
                  f"{change:+8.2%} (bound {metric['bound']:.0%}) "
                  f"{verdict}")
    return 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return compare(Path(args[0]), Path(args[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
