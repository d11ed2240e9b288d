"""The closed-loop workloads, their known answers, and shared helpers.

Every workload drives the framework through its public surface
(:class:`repro.api.Session`, :class:`BatchMonitor`, ``repro serve`` +
:class:`ServiceClient`) with the engine knobs at their defaults, and
checks every operation against a known answer: an operation whose
verdict is wrong counts as failed exactly like one that raised.

``run(seconds, tracer)`` measures for ``seconds``.  With a tracer,
traced and untraced operations alternate (:func:`closed_loop`), so the
trace overhead is the difference of their median times.  An
untraced run samples the machine's speed while its operations run
(:mod:`perfbench.speed`), and each time is also kept scaled to the
reference speed.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
import traceback
from dataclasses import dataclass, field

from perfbench import models
from perfbench.speed import SpeedTrack

#: Row keys that legitimately differ between a daemon run and a local
#: run of the same jobs (timing and reuse provenance).
VOLATILE = ("seconds", "memo_hit", "derived_from")

#: Table I of the paper, as this repository reproduces it.
CASE_STUDY = {
    "input": "m_BolusReq",
    "output": "c_StartInfusion",
    "deadline_ms": 500,
    "relaxed_ms": 1430,
    "sups": {"Input-Delay": 480, "Output-Delay": 440, "M-C delay": 1420},
}


@dataclass
class Measured:
    """What one run of a workload produced."""

    #: Wall time of each timed operation (untraced unless noted).
    durations: list = field(default_factory=list)
    #: ``(start, end)`` of each of :attr:`durations`.
    intervals: list = field(default_factory=list)
    #: :attr:`durations` scaled to the reference machine speed (equal
    #: to them in a traced run, which takes no probes).
    scaled: list = field(default_factory=list)
    #: The speed probes' values over the run.
    probes: list = field(default_factory=list)
    #: Work units per operation (states, schemes, events, requests).
    units: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: Times of the traced operations (trace runs only).
    traced_durations: list = field(default_factory=list)
    #: Timed-loop wall time (open loop: first due to last reply).
    wall: float = 0.0
    layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted \
            else 0.0

    def fail(self, message: str) -> None:
        """Record one failed operation (once per operation)."""
        self.failures.append(message)

    def add(self, start: float, end: float) -> None:
        """Record one untraced operation's time."""
        self.durations.append(end - start)
        self.intervals.append((start, end))

    def scale(self, speed: SpeedTrack | None, *,
              interrupted: bool = True) -> None:
        """Fill :attr:`scaled` from the probes during and around each
        operation; without ``speed``, with the raw times.  Where the
        probes ran in the operations' own thread (``interrupted``),
        their time is first taken out of the operations they
        interrupted."""
        if speed is None:
            self.scaled = list(self.durations)
            return
        if interrupted:
            self.durations = [end - start - speed.spent(start, end)
                              for start, end in self.intervals]
        self.scaled = [duration * speed.scale(start, end)
                       for duration, (start, end)
                       in zip(self.durations, self.intervals)]
        self.probes = speed.values


def strip_volatile(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE}


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe_config(session=None, network=None) -> dict:
    """The pinned configuration recorded with every result."""
    import platform

    import numpy

    from repro.zones.backend import available_backends

    config = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "native_built": "native" in available_backends(),
        "available_backends": list(available_backends()),
        "repro_env": sorted(k for k in os.environ
                            if k.startswith("REPRO_")),
    }
    if session is not None:
        described = session.describe()
        config.update(requested_backend=described["backend"],
                      abstraction=described["abstraction"],
                      jobs=described["jobs"],
                      executor=described["executor"])
    if network is not None:
        from repro.mc.explorer import ZoneGraphExplorer

        config["resolved_backend"] = \
            ZoneGraphExplorer(network).backend.name
    return config


# ----------------------------------------------------------------------
# Known-answer checks (pure functions: the benchmark's tests corrupt
# their inputs and expect a failure).
# ----------------------------------------------------------------------
def verify_fingerprint(report) -> tuple:
    """Verdict-independent tallies that must repeat op to op."""
    def tally(result):
        return (result.visited, getattr(result, "transitions", None)) \
            if result is not None else None

    return (
        tally(report.pim_result),
        tuple((c.constraint, c.holds, c.detail)
              for c in report.constraints.results)
        if report.constraints is not None else None,
        tally(report.psm_original_result),
        tally(report.psm_relaxed_result),
        tuple((name, bound.visited)
              for name, bound in sorted(report.symbolic.items())),
    )


def check_verify_report(report) -> list[str]:
    """Table I: PIM ⊨ P(500), constraints hold, Δ' = 1430 ms,
    PSM ⊭ P(500), PSM ⊨ P(1430), sups 480 / 440 / 1420 ms."""
    errors = []
    if not report.pim_holds:
        errors.append("PIM does not satisfy P(500)")
    if not report.constraints_hold:
        errors.append("PSM constraints do not hold")
    if report.relaxed_deadline_ms != CASE_STUDY["relaxed_ms"]:
        errors.append(f"relaxed deadline {report.relaxed_deadline_ms} "
                      f"!= {CASE_STUDY['relaxed_ms']}")
    original = report.psm_original_result
    if original is None or original.holds:
        errors.append("PSM should violate P(500)")
    relaxed = report.psm_relaxed_result
    if relaxed is None or not relaxed.holds:
        errors.append("PSM should satisfy P(1430)")
    for name, expected in CASE_STUDY["sups"].items():
        bound = report.symbolic.get(name)
        if bound is None or not bound.bounded or bound.sup != expected \
                or not bound.attained:
            errors.append(f"sup {name} = {bound}, expected max="
                          f"{expected}")
    return errors


def check_sweep_outcome(outcome) -> list[str]:
    """Every row ok; every guaranteed row has sup(M-C) <= Δ'."""
    errors = []
    for result in outcome:
        if not result.ok:
            errors.append(f"{result.name}: {result.status} "
                          f"({result.error})")
            continue
        if result.guarantee:
            bound = result.sups.get("M-C delay")
            relaxed = result.relaxed_deadline_ms
            if bound is None or not bound.bounded \
                    or bound.sup > relaxed:
                errors.append(f"{result.name}: sup(M-C) {bound} "
                              f"exceeds Δ'={relaxed}")
    return errors


def check_monitor_verdicts(verdicts, expected) -> list[str]:
    """``expected[i]`` is None for a conforming lane, else the channel
    whose event was pushed late: the lane must deviate there."""
    errors = []
    for verdict, channel in zip(verdicts, expected):
        if channel is None:
            if not verdict["conforming"]:
                errors.append(f"lane {verdict['session']} deviates "
                              f"but was not perturbed")
        else:
            deviation = verdict.get("deviation") or {}
            if verdict["conforming"] \
                    or deviation.get("channel") != channel:
                errors.append(
                    f"lane {verdict['session']}: expected a deviation "
                    f"on {channel}, got {deviation.get('channel')}")
    if len(verdicts) != len(expected):
        errors.append(f"{len(verdicts)} verdicts for {len(expected)} "
                      f"lanes")
    return errors


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def closed_loop(workload, seconds: float, tracer, measured: Measured,
                *, traced_ops: int | None = None) -> None:
    """Run ``workload.op(i)`` back to back for ``seconds``.

    With a tracer, operations come in pairs on the same input ``i``:
    one untraced, one traced, the order alternating from pair to pair.
    Drift of the machine then hits both sides alike, and the trace
    overhead is the difference of the two sides' median times.
    ``traced_ops`` fixes the number of pairs instead of the time, so
    that traced counts cover the same inputs on every run.

    An untraced run samples the machine's speed throughout
    (:meth:`SpeedTrack.sampling`): ~20 probes during each 5-6 s verify,
    where probes only at the two ends of an operation followed it too
    loosely to help.  A traced run takes no probes: their time would
    land in whichever layer they interrupted.
    """
    fixed = traced_ops if tracer is not None else None
    speed = SpeedTrack() if tracer is None else None
    with speed.sampling() if speed is not None \
            else contextlib.nullcontext():
        _loop(workload, seconds, tracer, measured, fixed, speed)
    measured.scale(speed)
    measured.peak_rss_mb = own_peak_rss_mb()


def _loop(workload, seconds, tracer, measured, fixed, speed) -> None:
    if speed is not None:
        speed.take()
    start = time.perf_counter()
    index = 0
    while (index < fixed if fixed is not None else
           index == 0 or time.perf_counter() - start < seconds):
        if tracer is None:
            sides = (None,)
        else:
            sides = (None, tracer) if index % 2 == 0 else (tracer, None)
        for side in sides:
            if side is not None:
                side.op = index
                side.install()
            try:
                _timed_op(workload, index, side is not None, measured)
            finally:
                if side is not None:
                    side.uninstall()
        index += 1
    measured.wall = time.perf_counter() - start
    if speed is not None:
        speed.take()


def _timed_op(workload, index: int, traced: bool,
              measured: Measured) -> None:
    measured.attempted += 1
    t0 = time.perf_counter()
    try:
        units, errors = workload.op(index)
    except Exception as exc:  # noqa: BLE001 - counted, reported
        traceback.print_exc()
        units, errors = 0, [f"raised {exc!r}"]
    t1 = time.perf_counter()
    if errors:
        measured.fail(f"op {index}: " + "; ".join(errors))
    if traced:
        measured.traced_durations.append(t1 - t0)
    else:
        measured.units.append(units)
        measured.add(t0, t1)


# ----------------------------------------------------------------------
class VerifyCaseStudy:
    """Repeated ``Session.verify`` on the paper's Table-I pipeline."""

    name = "verify_case_study"

    def __init__(self, seed: int):
        # The case study is fixed by the paper: the seed changes
        # nothing here.
        self.first = None

    def setup(self) -> None:
        from repro.api import Session
        from repro.apps.infusion import build_infusion_pim
        from repro.apps.schemes import case_study_scheme

        self.pim = build_infusion_pim()
        self.scheme = case_study_scheme()
        self.session = Session()

    def op(self, index: int):
        report = self.session.verify(
            self.pim, self.scheme,
            input_channel=CASE_STUDY["input"],
            output_channel=CASE_STUDY["output"],
            deadline_ms=CASE_STUDY["deadline_ms"],
            measure_suprema=True)
        errors = check_verify_report(report)
        fingerprint = verify_fingerprint(report)
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            errors.append("states/transitions differ from op 0")
        return 1, errors

    def run(self, seconds, tracer, measured: Measured) -> None:
        closed_loop(self, seconds, tracer, measured)

    def config(self) -> dict:
        from repro.core.transform import transform

        return describe_config(
            self.session, transform(self.pim, self.scheme).network)

    def close(self) -> None:
        pass


class SweepSmallSchemes:
    """Repeated cold ``Session.portfolio(..., reuse=True)`` sweeps."""

    name = "sweep_small_schemes"
    #: Distinct grids per run; operation ``i`` sweeps grid ``i % GRIDS``.
    GRIDS = 48

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rows: dict[int, list] = {}
        self.memo_share: dict[int, float] = {}

    def _sweep(self, index: int, *, reuse: bool):
        from repro.api import Session

        pim, schemes, deadline = self.grids[index % self.GRIDS]
        return Session().portfolio(
            pim, schemes, input_channel=models.INPUT,
            output_channel=models.OUTPUT, deadline_ms=deadline,
            reuse=reuse, measure_suprema=True)

    def setup(self) -> None:
        drawer = models.GridDrawer(self.rng)
        self.grids = []
        for _ in range(self.GRIDS):
            pim_params, scheme_params = drawer.grid()
            self.grids.append((
                models.build_pim(**pim_params),
                [models.build_scheme(**p) for p in scheme_params],
                pim_params["deadline"]))
        # Once per run: reuse must be invisible in the rows.
        self.reference = [strip_volatile(r.row())
                          for r in self._sweep(0, reuse=False)]
        self.setup_errors = []
        reused = [strip_volatile(r.row())
                  for r in self._sweep(0, reuse=True)]
        if reused != self.reference:
            self.setup_errors.append(
                "reuse-on rows differ from reuse-off rows on grid 0")

    def op(self, index: int):
        outcome = self._sweep(index, reuse=True)
        errors = check_sweep_outcome(outcome)
        rows = [strip_volatile(r.row()) for r in outcome]
        grid = index % self.GRIDS
        if grid == 0 and rows != self.reference:
            errors.append("rows differ from the reuse-off reference")
        if self.rows.setdefault(grid, rows) != rows:
            errors.append(f"grid {grid}: rows differ from its first "
                          f"sweep")
        self.memo_share[grid] = outcome.memoized / len(outcome)
        return len(outcome), errors

    def run(self, seconds, tracer, measured: Measured) -> None:
        for error in self.setup_errors:
            measured.attempted += 1
            measured.fail(f"setup: {error}")
        closed_loop(self, seconds, tracer, measured,
                    traced_ops=self.GRIDS)
        share = list(self.memo_share.values())
        measured.notes["memo_answered_share"] = sum(share) / len(share)

    def config(self) -> dict:
        from repro.api import Session

        return describe_config(Session(), self.grids[0][0].network)

    def close(self) -> None:
        pass


class MonitorFleet:
    """A :class:`BatchMonitor` fleet over the case-study PSM."""

    name = "monitor_fleet"
    DISTINCT = 24      # distinct simulated traces per run
    COPIES = 4         # lanes per distinct trace
    PERTURBED = 6      # distinct traces with one response pushed late
    TRIALS = 4         # bolus requests per simulated trace
    LATE_US = 2_000_000
    #: Precompile budget: the case-study monitor network never
    #: completes (its receptive environment is unbounded), and the
    #: 200k-state default costs ~25 s per set-up; sessions fill the
    #: remaining caches on demand (the warm-up feed below).
    PRECOMPILE_STATES = 5_000

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.observed = self.deviations = 0

    def setup(self) -> None:
        from repro.analysis.table1 import simulate_trials
        from repro.api import Session
        from repro.apps.infusion import build_infusion_pim
        from repro.apps.schemes import case_study_scheme

        self.pim = build_infusion_pim()
        self.scheme = case_study_scheme()
        self.session = Session(monitor_max_states=self.PRECOMPILE_STATES)
        t0 = time.perf_counter()
        self.model = self.session.monitor_model(pim=self.pim,
                                                scheme=self.scheme)
        self.precompile_s = time.perf_counter() - t0
        traces = []
        for _ in range(self.DISTINCT):
            events: list = []
            simulate_trials(self.pim, self.scheme, trials=self.TRIALS,
                            seed=self.rng.randrange(1 << 30),
                            trace_listener=events.append)
            traces.append((events, None))
        outputs = set(self.model.output_channels)
        for k in self.rng.sample(range(self.DISTINCT), self.PERTURBED):
            events = traces[k][0]
            responses = [i for i, e in enumerate(events)
                         if e.kind == "c" and e.channel in outputs]
            i = self.rng.choice(responses)
            traces[k] = (models.push_late(events, i, self.LATE_US),
                         events[i].channel)
        lanes = [traces[k] for k in range(self.DISTINCT)
                 for _ in range(self.COPIES)]
        self.rng.shuffle(lanes)
        self.streams = [events for events, _ in lanes]
        self.expected = [channel for _, channel in lanes]
        self.fed_events = sum(map(len, self.streams))
        self._feed([events for events, _ in traces])  # warm-up

    def _feed(self, streams):
        from repro.monitor import BatchMonitor

        runner = BatchMonitor(
            self.model, len(streams),
            requirement=(CASE_STUDY["input"], CASE_STUDY["output"],
                         CASE_STUDY["deadline_ms"]))
        runner.feed(streams)
        return runner

    def op(self, index: int):
        runner = self._feed(self.streams)
        verdicts = runner.verdicts()
        self.observed = sum(v["observed"] for v in verdicts)
        self.deviations = sum(not v["conforming"] for v in verdicts)
        return self.observed, check_monitor_verdicts(verdicts,
                                                     self.expected)

    def run(self, seconds, tracer, measured: Measured) -> None:
        closed_loop(self, seconds, tracer, measured)
        lanes = len(self.streams)
        measured.layer.update({
            "monitor.fed_events": self.fed_events,
            "monitor.observed_events": self.observed,
            "monitor.distinct_lane_frac": self.DISTINCT / lanes,
            "monitor.perturbed_lane_frac":
                self.PERTURBED * self.COPIES / lanes,
            "monitor.deviations": self.deviations,
            "monitor.precompile_s": self.precompile_s,
        })
        measured.notes["precompile"] = self.model.precompile_stats

    def config(self) -> dict:
        config = describe_config(self.session)
        config["resolved_backend"] = self.model.backend.name
        return config

    def close(self) -> None:
        pass
