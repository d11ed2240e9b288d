"""Benchmark entry point: build, set up, measure, check, report.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload verify_case_study --seed 1 \\
        --seconds 20 --trace 0

Steps:

1. Build the program from source: copy ``src/`` and ``setup.py`` into
   ``.bench_build/perfbench/tree-<hash>/`` and compile the native DBM
   kernel there (``setup.py build_ext --inplace``).  The checkout's own
   files are never written.  A failed build is an error: results with
   and without the kernel resolve ``auto`` to different backends and
   must not be compared.
2. Set up the workload :data:`SETUP_SAMPLES` times, each in a fresh
   process with every ``REPRO_*`` variable removed; ``setup_s`` is the
   median time from process start to the process's ``READY`` line,
   each scaled to the reference machine speed by a probe taken just
   before the process starts and, for the set-up-only ones, just after
   it ends (:mod:`perfbench.speed`).  Set-up is not sampled from
   inside: in ``serve_design_sessions`` such probes would run beside
   the booting daemon and measure its load.
3. The middle one of those processes goes on to the timed operations
   (``--seconds``), checks every answer, and reports.  Probes
   sampled while the operations run scale their times too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Everything else — configuration, every sample, the
tail percentile, failures — is printed above it and kept in
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.speed import REFERENCE_S, probe  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("verify_case_study", "sweep_small_schemes", "monitor_fleet",
             "serve_design_sessions")
#: Fresh-process set-ups per run; ``setup_s`` is their median.  The
#: one that goes on to measure sits in the middle, so the samples
#: span the whole run and a slow or fast spell of the machine moves
#: few of them.
SETUP_SAMPLES = 7
MEASURING_SAMPLE = SETUP_SAMPLES // 2
#: Everything, set-up samples included, must end within this.
RUN_LIMIT_S = 170.0

#: Per-workload names of the end-to-end figures, for the printout.
HEADLINES = {
    "verify_case_study": ("verify_p50_s", None, "verify ops/s"),
    "sweep_small_schemes": ("sweep_p50_s", "sweep_tail_s", "schemes/s"),
    "monitor_fleet": ("feed_p50_s", "feed_tail_s",
                      "observed_events_per_s"),
    "serve_design_sessions": ("request_p50_s", "request_tail_s",
                              "requests/s"),
}


def die(message: str, code: int = 1) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def clean_env(pythonpath: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    return env


def build_tree() -> Path:
    """The built source tree for this checkout's ``src/`` (cached by
    content hash); returns its ``src`` directory."""
    src, setup = ROOT / "src", ROOT / "setup.py"
    if not (src / "repro").is_dir() or not setup.is_file():
        die(f"no repro source tree under {ROOT} (run from the root of "
            f"a checkout)", 2)
    digest = hashlib.sha256(setup.read_bytes())
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and path.suffix not in (".so", ".pyc"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    tree = WORK / f"tree-{digest.hexdigest()[:16]}"
    if (tree / "BUILT").is_file():
        return tree / "src"
    tmp = WORK / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(src, tmp / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.pyc"))
    shutil.copy2(setup, tmp / "setup.py")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", "build"],
        cwd=tmp, env=clean_env(), capture_output=True, text=True,
        timeout=600)
    kernels = list((tmp / "src" / "repro" / "zones").glob(
        "_dbmkernel*.so"))
    if proc.returncode != 0 or not kernels:
        shutil.rmtree(tmp, ignore_errors=True)
        die(f"native kernel build failed:\n{proc.stdout[-2000:]}"
            f"{proc.stderr[-2000:]}")
    shutil.rmtree(tmp / "build", ignore_errors=True)
    (tmp / "BUILT").write_text(kernels[0].name + "\n")
    try:
        os.replace(tmp, tree)
    except OSError:  # built concurrently by another run
        shutil.rmtree(tmp, ignore_errors=True)
    return tree / "src"


class Child:
    """A worker process in its own process group, with a deadline."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self.started = time.perf_counter()
        self.timed_out = False
        self._timer = threading.Timer(
            max(deadline - time.monotonic(), 1.0), self._kill)
        self._timer.daemon = True
        self._timer.start()

    def _kill(self) -> None:
        self.timed_out = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass

    def wait_ready(self) -> float | None:
        """Seconds from start to the ``READY`` line (None: never)."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        return None

    def finish(self) -> str:
        output = self.proc.stdout.read()
        self.proc.wait()
        self._timer.cancel()
        # Reap anything the worker left behind in its group.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    tree_src = build_tree()
    env = clean_env(os.pathsep.join((str(tree_src), str(ROOT))))
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(results_dir / f"{tag}.spans.jsonl")]
    setups, raw_setups = [], []
    for sample in range(SETUP_SAMPLES):
        measuring = sample == MEASURING_SAMPLE
        around = [probe()]
        child = Child(common + (extra if measuring else ["--setup-only"]),
                      env, deadline)
        ready = child.wait_ready()
        output = child.finish()
        if child.timed_out:
            die(f"run exceeded {RUN_LIMIT_S:.0f} s")
        if ready is None or child.proc.returncode != 0:
            die(f"worker failed (exit {child.proc.returncode})")
        if not measuring:
            around.append(probe())
        raw_setups.append(ready)
        setups.append(ready * REFERENCE_S / statistics.fmean(around))
        if measuring:
            result = json.loads(output.strip().splitlines()[-1])

    summary = result["summary"]
    setup_s = statistics.median(setups)
    attempted = result["attempted"]
    failed = len(result["failures"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values, wanted = dict(summary, setup_s=setup_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result.update(setup_samples=setups, raw_setup_samples=raw_setups,
                  setup_s=setup_s, trace=args.trace, metrics=metrics)
    (results_dir / f"{tag}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")

    p50_name, tail_name, rate_name = HEADLINES[args.workload]
    print(f"config: {json.dumps(result['config'], sort_keys=True)}")
    print("set-up and operation times are scaled to the reference "
          "machine speed; raw wall times in brackets")
    print(f"setup_s = {setup_s:.4f} s [{statistics.median(raw_setups):.4f}]"
          f" (median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"{p50_name} = {summary['op_p50_s']:.4f} s "
          f"[{summary['raw_op_p50_s']:.4f}] (n={summary['ops']})")
    tail_label = tail_name or "op_tail_s"
    print(f"{tail_label} = {summary['op_tail_s']:.4f} s "
          f"[{summary['raw_op_tail_s']:.4f}] "
          f"(p{summary['tail_percentile']:.1f} of {summary['ops']}, "
          f"{summary['tail_beyond']} beyond)")
    print(f"{rate_name} = {summary['throughput_per_s']:.4f} 1/s "
          f"[{summary['raw_throughput_per_s']:.4f}]")
    print(f"peak_rss_mb = {summary['peak_rss_mb']}")
    print(f"failed_frac = {failed / max(attempted, 1):.4f} "
          f"({failed} of {attempted})")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    for key, value in sorted(result.get("notes", {}).items()):
        print(f"note {key}: {json.dumps(value, default=str)[:300]}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
