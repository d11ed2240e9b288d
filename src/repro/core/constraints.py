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

A fifth, implicit sanity check — the PSM composition neither deadlocks
nor timelocks — is exposed as :func:`check_progress` because a stuck
PSM would satisfy every safety property vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.delays import detection_bound
from repro.core.psm import PSM
from repro.mc.deadlock import find_deadlocks
from repro.mc.reachability import StateFormula, check_reachable

__all__ = [
    "ConstraintResult",
    "ConstraintReport",
    "check_constraint1",
    "check_constraint2",
    "check_constraint3",
    "check_constraint4",
    "check_progress",
    "check_all_constraints",
]


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


def _flags_reachable(psm: PSM, flags: list[str], what: str, *,
                     max_states: int,
                     jobs: int | None = None,
                     abstraction: str | None = None) -> ConstraintResult:
    """Shared machinery: is any of the given flags settable?"""
    flags = [f for f in flags if f]
    if not flags:
        return ConstraintResult(
            constraint=what, holds=True,
            detail="no applicable flags (mechanism not used)")
    condition = " || ".join(f"{flag} == 1" for flag in flags)
    reach = check_reachable(psm.network, StateFormula(data=condition),
                            max_states=max_states, jobs=jobs,
                            abstraction=abstraction)
    if reach.reachable:
        return ConstraintResult(
            constraint=what, holds=False,
            detail=f"reachable: {condition} (witness: {reach.witness})",
            counterexample=reach.trace)
    return ConstraintResult(
        constraint=what, holds=True,
        detail=f"A[] !({condition}) verified "
               f"({reach.visited} states)")


def check_constraint1(psm: PSM, *,
                      min_interarrival_ms: int | None = None,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 1: every environmental input signal is detected."""
    result = _flags_reachable(
        psm, psm.miss_flags(),
        "Constraint 1 (detection of all input signals)",
        max_states=max_states)
    if not result.holds or min_interarrival_ms is None:
        return result
    # Analytic half: processing faster than the inter-arrival time.
    slow = []
    for channel in psm.pim.input_channels():
        if detection_bound(psm.scheme, channel) >= min_interarrival_ms:
            slow.append(channel)
    if slow:
        return ConstraintResult(
            constraint=result.constraint, holds=False,
            detail=f"device(s) {slow} slower than the minimum "
                   f"inter-arrival time {min_interarrival_ms}ms")
    return ConstraintResult(
        constraint=result.constraint, holds=True,
        detail=result.detail + "; processing beats inter-arrival time")


def check_constraint2(psm: PSM, *,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 2: the input buffers never overflow."""
    flags = [vars_.overflow for vars_ in psm.input_vars.values()]
    return _flags_reachable(
        psm, flags, "Constraint 2 (no input-buffer overflow)",
        max_states=max_states)


def check_constraint3(psm: PSM, *,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 3: the output buffers never overflow."""
    flags = [vars_.overflow for vars_ in psm.output_vars.values()]
    return _flags_reachable(
        psm, flags, "Constraint 3 (no output-buffer overflow)",
        max_states=max_states)


def check_constraint4(psm: PSM, *,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 4: the code never drops a pending input."""
    return _flags_reachable(
        psm, [psm.code_drop_flag],
        "Constraint 4 (no internal-transition interference)",
        max_states=max_states)


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
                          single_pass: bool = True,
                          max_states: int = 1_000_000,
                          jobs: int | None = None,
                          zone_backend: str | None = None,
                          abstraction: str | None = None,
                          ) -> ConstraintReport:
    """Run Constraints 1–4 (plus the optional progress sanity check).

    With ``single_pass`` (the default) one full exploration evaluates
    all four flag sets at once — the flags are monotone, so "ever set
    in a reachable state" is exactly reachability.  Set it to False to
    get per-constraint counterexample traces instead.
    """
    report = ConstraintReport()
    if include_progress:
        report.results.append(check_progress(
            psm, max_states=max_states, zone_backend=zone_backend))
    if not single_pass:
        report.results.append(check_constraint1(
            psm, min_interarrival_ms=min_interarrival_ms,
            max_states=max_states))
        report.results.append(check_constraint2(psm,
                                                max_states=max_states))
        report.results.append(check_constraint3(psm,
                                                max_states=max_states))
        report.results.append(check_constraint4(psm,
                                                max_states=max_states))
        return report
    report.results.extend(_single_pass_constraints(
        psm, min_interarrival_ms=min_interarrival_ms,
        max_states=max_states, jobs=jobs, zone_backend=zone_backend,
        abstraction=abstraction))
    return report


def _single_pass_constraints(psm: PSM, *,
                             min_interarrival_ms: int | None,
                             max_states: int,
                             jobs: int | None = None,
                             zone_backend: str | None = None,
                             abstraction: str | None = None,
                             ) -> list[ConstraintResult]:
    """One exploration deciding Constraints 1–4 together."""
    from repro.mc.parallel import make_explorer

    groups: dict[str, list[str]] = {
        "Constraint 1 (detection of all input signals)":
            psm.miss_flags(),
        "Constraint 2 (no input-buffer overflow)":
            [v.overflow for v in psm.input_vars.values()],
        "Constraint 3 (no output-buffer overflow)":
            [v.overflow for v in psm.output_vars.values()],
        "Constraint 4 (no internal-transition interference)":
            [psm.code_drop_flag],
    }
    explorer = make_explorer(psm.network, jobs=jobs,
                             max_states=max_states,
                             zone_backend=zone_backend,
                             abstraction=abstraction)
    compiled = explorer.compiled
    positions = {
        flag: compiled.var_pos(flag)
        for flags in groups.values() for flag in flags if flag
    }
    witnesses: dict[str, str] = {}

    def visit(state) -> None:
        for flag, pos in positions.items():
            if flag not in witnesses and state.vals[pos] == 1:
                witnesses[flag] = compiled.state_description(state)

    result = explorer.explore(visit=visit)

    out: list[ConstraintResult] = []
    for constraint, flags in groups.items():
        flags = [f for f in flags if f]
        if not flags:
            out.append(ConstraintResult(
                constraint=constraint, holds=True,
                detail="no applicable flags (mechanism not used)"))
            continue
        hit = [f for f in flags if f in witnesses]
        if hit:
            out.append(ConstraintResult(
                constraint=constraint, holds=False,
                detail=f"flag(s) {hit} reachable "
                       f"(e.g. {witnesses[hit[0]]})"))
        else:
            out.append(ConstraintResult(
                constraint=constraint, holds=True,
                detail=f"flags {flags} unreachable "
                       f"({result.visited} states)"))
    # Constraint 1's analytic half.
    if min_interarrival_ms is not None and out[0].holds:
        slow = [ch for ch in psm.pim.input_channels()
                if detection_bound(psm.scheme, ch)
                >= min_interarrival_ms]
        if slow:
            out[0] = ConstraintResult(
                constraint=out[0].constraint, holds=False,
                detail=f"device(s) {slow} slower than the minimum "
                       f"inter-arrival time {min_interarrival_ms}ms")
    return out
