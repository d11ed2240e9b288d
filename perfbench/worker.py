"""One benchmark process: set up a workload, run it, report.

Started by ``perfbench/run.py`` (never directly by a user): prints
``READY`` once set-up is complete — the parent times process start to
that line as ``setup_s`` — then, unless ``--setup-only``, runs the
timed operations and prints one JSON line with everything measured.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.serve import ServeDesignSessions
from perfbench.stats import p50, tail
from perfbench.workloads import (
    Measured,
    MonitorFleet,
    SweepSmallSchemes,
    VerifyCaseStudy,
)

WORKLOADS = {cls.name: cls for cls in (
    VerifyCaseStudy, SweepSmallSchemes, MonitorFleet,
    ServeDesignSessions)}

#: Framework phase methods whose times should add up to a verify op.
CORE_PHASES = ("core.pim", "core.transform", "core.constraints",
               "core.bounds", "core.deadline_sweep", "core.suprema")


def layer_metrics(tracer, measured: Measured) -> dict:
    """Every per-layer metric, per traced operation (0 when the layer
    did no work in this workload)."""
    ops = max(len(measured.traced_durations), 1)
    calls, inclusive = tracer.calls, tracer.inclusive
    counters = tracer.counters
    self_time = tracer.layer_self_time()

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{name}_s": per_op(inclusive.get(name, 0.0))
               for name in CORE_PHASES}
    metrics["core.phase_share"] = ratio(
        sum(inclusive.get(name, 0.0) for name in CORE_PHASES),
        sum(measured.traced_durations))
    explore_s = inclusive.get("mc.explore", 0.0)
    metrics.update({
        "mc.explorations": per_op(counters["mc.explorations"]),
        "mc.states": per_op(counters["mc.states"]),
        "mc.transitions": per_op(counters["mc.transitions"]),
        "mc.states_per_s": ratio(counters["mc.states"], explore_s),
        "mc.explorer_init_s": per_op(inclusive.get("mc.explorer_init",
                                                   0.0)),
        "zones.store.covers_calls": per_op(calls["zones.store.covers"]),
        "zones.store.insert_calls": per_op(calls["zones.store.insert"]),
        "zones.store.covered_frac": ratio(counters["zones.store.covered"],
                                          calls["zones.store.covers"]),
        "zones.store.self_s": per_op(self_time.get("zones.store", 0.0)),
        "zones.store.rows": per_op(counters["zones.store.rows"]),
        "zones.dbm.self_s": per_op(self_time.get("zones.dbm", 0.0)),
        "zones.intern.zones": tracer.interned_zones(),
        "portfolio.schemes": per_op(counters["portfolio.schemes"]),
        "portfolio.explored": per_op(counters["portfolio.explored"]),
        "portfolio.memo_hits": per_op(counters["portfolio.memo_hits"]),
        "portfolio.reuse_frac": ratio(counters["portfolio.memo_hits"],
                                      counters["portfolio.schemes"]),
        "portfolio.memo_key_s": per_op(inclusive.get("portfolio.memo_key",
                                                     0.0)),
        "monitor.fed_events": 0,
        "monitor.observed_events": 0,
        "monitor.distinct_lane_frac": 0.0,
        "monitor.perturbed_lane_frac": 0.0,
        "monitor.deviations": 0,
        "monitor.feed_s": per_op(inclusive.get("monitor.feed", 0.0)),
        "monitor.precompile_s": 0.0,
        "service.cache_hit_frac": 0.0,
        "service.explored_rows": 0,
        "service.generator_lag_s": 0.0,
        "service.in_flight_max": 0,
    })
    metrics.update(measured.layer)
    untraced = p50(measured.durations) if measured.durations else 0.0
    traced = p50(measured.traced_durations) \
        if measured.traced_durations else 0.0
    metrics.update({
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": ratio(traced - untraced, untraced),
        "trace.spans": len(tracer.spans),
        "checks.failed_frac": measured.failed_frac,
    })
    return metrics


def summarize(measured: Measured, open_loop: bool) -> dict:
    """The end-to-end figures, minus set-up time (the parent's).

    Operation times are scaled to the reference machine speed
    (:mod:`perfbench.speed`); the ``raw_*`` figures are unscaled.
    """
    def figures(durations, prefix):
        tail_value, _, _ = tail(durations)
        # Closed loops: work per second of operation time; the open
        # loop: completed requests per second of the schedule.
        busy = measured.wall if open_loop else sum(durations)
        return {
            f"{prefix}op_p50_s": p50(durations),
            f"{prefix}op_tail_s": tail_value,
            f"{prefix}throughput_per_s":
                sum(measured.units) / busy if busy else 0.0,
        }

    _, tail_pct, beyond = tail(measured.durations)
    return {
        **figures(measured.scaled, ""),
        **figures(measured.durations, "raw_"),
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "ops": len(measured.durations),
        "peak_rss_mb": measured.peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    open_loop = getattr(cls, "open_loop", False)
    # An open loop lays out its schedule over the whole window.
    workload = cls(args.seed, args.seconds) if open_loop \
        else cls(args.seed)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from perfbench.trace import Tracer

            tracer = Tracer()
        measured = Measured()
        workload.run(args.seconds, tracer, measured)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": measured.attempted,
            "failures": measured.failures,
            "wall_s": measured.wall,
            "durations": measured.durations,
            "scaled_durations": measured.scaled,
            "probes": measured.probes,
            "summary": summarize(measured, open_loop),
            "notes": measured.notes,
            "config": workload.config(),
        }
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, measured)
            result["traced_durations"] = measured.traced_durations
            result["layer_self_s"] = tracer.layer_self_time()
            result["wrapped"] = tracer.wrapped
            result["missing"] = tracer.missing
            if args.spans:
                tracer.write_spans(args.spans)
    finally:
        workload.close()
    print(json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
