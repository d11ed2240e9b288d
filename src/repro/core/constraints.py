"""The four boundedness constraints of Section V.

Remark 1: ``Δ'_mc`` is not bounded for every implementation scheme.
The paper gives four constraints under which it is; each is decided
here by model checking the PSM (the paper's route) — reachability of
the bookkeeping flags the transformation planted:

1. **Detection of all input signals** — no ``miss_*`` flag reachable
   (a polled latch was overwritten before its sample), plus the
   analytic sub-check that each device's worst-case processing is
   faster than the environment's minimum inter-arrival time.
2. **No overflow of the input buffers** — no input ``ovf_*``/``lost_*``
   flag reachable.
3. **No overflow of the output buffers** — ditto for outputs
   (including the staging overflow inside EXEIO).
4. **No internal transition interference** — the ``code_drop`` flag is
   unreachable: the code never pops an input it cannot consume, i.e.
   MIO never moved past the accepting location between the enqueue and
   the read.

Every flag is one :class:`~repro.mc.queries.SafetyQuery` of
:func:`sweep_psm`, which answers the constraints, the step-5/6
deadlines and the optional suprema from **one** exploration of the
PSM (:func:`~repro.mc.queries.check_many`).  The observers it adds
never touch the PSM's own variables, so flag reachability is that of
the plain PSM; the state counts quoted in the details are those of
the shared sweep.

A fifth, implicit sanity check — the PSM composition neither deadlocks
nor timelocks — is exposed as :func:`check_progress` because a stuck
PSM would satisfy every safety property vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.delays import detection_bound
from repro.core.psm import PSM
from repro.mc.deadlock import find_deadlocks
from repro.mc.observers import BoundedResponseResult, DelayBound
from repro.mc.queries import (
    BoundedResponseQuery,
    ResponseSupQuery,
    SafetyQuery,
    check_many,
)
from repro.mc.reachability import StateFormula

__all__ = [
    "ConstraintResult",
    "ConstraintReport",
    "PSMSweep",
    "check_constraint1",
    "check_constraint2",
    "check_constraint3",
    "check_constraint4",
    "check_progress",
    "check_all_constraints",
    "sweep_psm",
]

#: Section-V constraint names, in order (1–4).
CONSTRAINTS = (
    "Constraint 1 (detection of all input signals)",
    "Constraint 2 (no input-buffer overflow)",
    "Constraint 3 (no output-buffer overflow)",
    "Constraint 4 (no internal-transition interference)",
)

#: Names of the three suprema :func:`sweep_psm` measures.
SUPREMA = ("Input-Delay", "Output-Delay", "M-C delay")


@dataclass
class ConstraintResult:
    """Outcome of one constraint check."""

    constraint: str
    holds: bool
    detail: str
    counterexample: list[str] | None = None

    def __bool__(self) -> bool:
        return self.holds

    def summary(self) -> str:
        status = "SATISFIED" if self.holds else "VIOLATED"
        return f"{self.constraint}: {status} — {self.detail}"


@dataclass
class PSMSweep:
    """Everything one joint exploration of a PSM established."""

    #: One result per requested constraint, in Section-V order.
    constraints: list[ConstraintResult] = field(default_factory=list)
    #: One bounded-response verdict per requested deadline.
    responses: list[BoundedResponseResult] = field(default_factory=list)
    #: The three suprema (keyed by :data:`SUPREMA`) when measured.
    suprema: dict[str, DelayBound] = field(default_factory=dict)
    #: ``track_maxima`` results (``None`` when nothing was tracked).
    maxima: dict | None = None
    #: Whether the sweep covered the full reachable state space.
    complete: bool = False


def _constraint_flags(psm: PSM) -> list[list[str]]:
    """Each constraint's bookkeeping flags, in Section-V order."""
    return [
        psm.miss_flags(),
        [v.overflow for v in psm.input_vars.values()],
        [v.overflow for v in psm.output_vars.values()],
        [psm.code_drop_flag],
    ]


def sweep_psm(psm: PSM, *,
              constraints: Sequence[int] = (1, 2, 3, 4),
              min_interarrival_ms: int | None = None,
              input_channel: str | None = None,
              output_channel: str | None = None,
              deadlines: Sequence[int] = (),
              measure_suprema: bool = False,
              track_maxima: "Sequence[str | tuple[str, ...]]" = (),
              max_states: int = 1_000_000,
              jobs: int | None = None,
              zone_backend: str | None = None,
              abstraction: str | None = None) -> PSMSweep:
    """Constraints, deadlines and suprema of one PSM in one sweep.

    ``constraints`` picks Constraints 1–4 by number; each of their
    flags becomes one safety query, so a violated constraint names
    every reachable flag and carries the first one's witness and
    trace.  ``deadlines`` adds one ``input_channel ⤳≤Δ
    output_channel`` query each (steps 5/6); ``measure_suprema`` adds
    the input, output and end-to-end response suprema.
    ``track_maxima`` passes through to
    :func:`~repro.mc.queries.check_many`.  No query, no exploration.
    """
    groups = [(CONSTRAINTS[number - 1],
               [flag for flag in _constraint_flags(psm)[number - 1]
                if flag])
              for number in constraints]
    flags = list(dict.fromkeys(
        flag for _, group in groups for flag in group))
    queries: list[object] = [
        SafetyQuery(StateFormula(data=f"{flag} == 1")) for flag in flags]
    queries += [BoundedResponseQuery(input_channel, output_channel,
                                     deadline)
                for deadline in deadlines]
    if measure_suprema:
        queries += [
            ResponseSupQuery(input_channel, psm.io_name(input_channel)),
            ResponseSupQuery(psm.io_name(output_channel),
                             output_channel),
            ResponseSupQuery(input_channel, output_channel),
        ]
    sweep = PSMSweep()
    results: tuple = ()
    visited = 0
    if queries:
        outcome = check_many(
            psm.network, queries, max_states=max_states, jobs=jobs,
            zone_backend=zone_backend, abstraction=abstraction,
            track_maxima=track_maxima)
        results, visited = outcome.results, outcome.visited
        sweep.maxima = outcome.maxima
        sweep.complete = outcome.complete
    flag_results = dict(zip(flags, results))
    for name, group in groups:
        hit = [flag for flag in group if not flag_results[flag].holds]
        if not group:
            result = ConstraintResult(
                constraint=name, holds=True,
                detail="no applicable flags (mechanism not used)")
        elif hit:
            first = flag_results[hit[0]]
            result = ConstraintResult(
                constraint=name, holds=False,
                detail=f"flag(s) {hit} reachable "
                       f"(e.g. {first.counterexample})",
                counterexample=first.trace)
        else:
            result = ConstraintResult(
                constraint=name, holds=True,
                detail=f"flags {group} unreachable "
                       f"({visited} states)")
        if (name == CONSTRAINTS[0] and result.holds
                and min_interarrival_ms is not None):
            result = _interarrival_check(psm, result,
                                         min_interarrival_ms)
        sweep.constraints.append(result)
    rest = list(results[len(flags):])
    sweep.responses = rest[:len(deadlines)]
    if measure_suprema:
        sweep.suprema = dict(zip(SUPREMA, rest[len(deadlines):]))
    return sweep


def _interarrival_check(psm: PSM, result: ConstraintResult,
                        min_interarrival_ms: int) -> ConstraintResult:
    """Constraint 1's analytic half: processing faster than the
    inter-arrival time."""
    slow = [channel for channel in psm.pim.input_channels()
            if detection_bound(psm.scheme, channel)
            >= min_interarrival_ms]
    if slow:
        return ConstraintResult(
            constraint=result.constraint, holds=False,
            detail=f"device(s) {slow} slower than the minimum "
                   f"inter-arrival time {min_interarrival_ms}ms")
    return ConstraintResult(
        constraint=result.constraint, holds=True,
        detail=result.detail + "; processing beats inter-arrival time")


def check_constraint1(psm: PSM, *,
                      min_interarrival_ms: int | None = None,
                      **engine) -> ConstraintResult:
    """Constraint 1: every environmental input signal is detected.

    ``engine`` (``max_states``, ``jobs``, ``zone_backend``,
    ``abstraction``) passes through to :func:`sweep_psm`, as for
    Constraints 2–4."""
    return sweep_psm(psm, constraints=(1,),
                     min_interarrival_ms=min_interarrival_ms,
                     **engine).constraints[0]


def check_constraint2(psm: PSM, **engine) -> ConstraintResult:
    """Constraint 2: the input buffers never overflow."""
    return sweep_psm(psm, constraints=(2,), **engine).constraints[0]


def check_constraint3(psm: PSM, **engine) -> ConstraintResult:
    """Constraint 3: the output buffers never overflow."""
    return sweep_psm(psm, constraints=(3,), **engine).constraints[0]


def check_constraint4(psm: PSM, **engine) -> ConstraintResult:
    """Constraint 4: the code never drops a pending input."""
    return sweep_psm(psm, constraints=(4,), **engine).constraints[0]


def check_progress(psm: PSM, *,
                   max_states: int = 1_000_000,
                   zone_backend: str | None = None) -> ConstraintResult:
    """Sanity: the PSM composition never gets stuck."""
    report = find_deadlocks(psm.network, max_states=max_states,
                            zone_backend=zone_backend)
    if report.deadlock_free:
        return ConstraintResult(
            constraint="Progress (no deadlock/timelock)", holds=True,
            detail=f"deadlock-free ({report.visited} states)")
    return ConstraintResult(
        constraint="Progress (no deadlock/timelock)", holds=False,
        detail=report.summary())


@dataclass
class ConstraintReport:
    """All Section-V constraints for one PSM."""

    results: list[ConstraintResult] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    def summary(self) -> str:
        lines = [r.summary() for r in self.results]
        verdict = ("all constraints satisfied — Δ'_mc is bounded "
                   "(Lemma 1 applies)"
                   if self.all_hold else
                   "constraint violation — Δ'_mc may be unbounded "
                   "(Remark 1)")
        return "\n".join(lines + [verdict])


def check_all_constraints(psm: PSM, *,
                          min_interarrival_ms: int | None = None,
                          include_progress: bool = False,
                          max_states: int = 1_000_000,
                          jobs: int | None = None,
                          zone_backend: str | None = None,
                          abstraction: str | None = None,
                          ) -> ConstraintReport:
    """Run Constraints 1–4 (plus the optional progress sanity check).

    One exploration decides all four flag sets at once — the flags
    are monotone, so "ever set in a reachable state" is exactly
    reachability.
    """
    report = ConstraintReport()
    if include_progress:
        report.results.append(check_progress(
            psm, max_states=max_states, zone_backend=zone_backend))
    report.results.extend(sweep_psm(
        psm, min_interarrival_ms=min_interarrival_ms,
        max_states=max_states, jobs=jobs, zone_backend=zone_backend,
        abstraction=abstraction).constraints)
    return report
