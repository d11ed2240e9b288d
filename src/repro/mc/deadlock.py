"""Deadlock / timelock detection.

A symbolic state is *stuck* when it has no discrete successor and its
delay-closed zone is time-bounded (some invariant caps every clock, so
the run cannot let time diverge either).  Such states usually signal a
modeling bug — e.g. an EXEIO stage whose guard can never fire — and
the transformation tests use this check as a sanity net.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mc.explorer import ZoneGraphExplorer
from repro.ta.model import Network
from repro.zones.bounds import INF

__all__ = ["DeadlockReport", "find_deadlocks"]


@dataclass
class DeadlockReport:
    """Stuck states found during a full exploration."""

    stuck_states: list[str]
    visited: int

    @property
    def deadlock_free(self) -> bool:
        return not self.stuck_states

    def summary(self) -> str:
        if self.deadlock_free:
            return f"deadlock-free ({self.visited} states)"
        head = self.stuck_states[0]
        return (f"{len(self.stuck_states)} stuck state(s), e.g. {head} "
                f"({self.visited} states)")


def find_deadlocks(network: Network, *,
                   max_states: int = 1_000_000,
                   limit: int = 10,
                   zone_backend: str | None = None,
                   abstraction: str | None = None) -> DeadlockReport:
    """Search the full zone graph for stuck (dead/time-locked) states.

    Runs under Extra_M — and refuses ``abstraction="extra_lu"`` rather
    than silently honoring it: the timelock test below reads clock
    *upper bounds* of stored zones, which the coarser Extra⁺_LU
    widening legitimately turns into ∞.  LU preserves reachability
    verdicts, not boundedness of individual zones, so running this
    query under LU would misclassify genuinely time-locked states as
    live (time could "diverge" through a widened bound that the real
    zone caps).

    ``abstraction`` exists so grid/portfolio plumbing can pass its
    engine setting through uniformly; only ``None`` and ``"extra_m"``
    are accepted.
    """
    if abstraction is not None and abstraction != "extra_m":
        raise ValueError(
            f"find_deadlocks only supports the extra_m abstraction, "
            f"got {abstraction!r}: the timelock test reads zone upper "
            f"bounds, which Extra⁺_LU widening turns into ∞ and would "
            f"make stuck states look live. Drop the argument (extra_m "
            f"is always used) or pass abstraction='extra_m'.")
    explorer = ZoneGraphExplorer(network, max_states=max_states,
                                 zone_backend=zone_backend,
                                 abstraction="extra_m")
    compiled = explorer.compiled
    stuck: list[str] = []
    states = list(explorer.iter_states())
    for state in states:
        if len(stuck) >= limit:
            break
        has_successor = False
        for _succ, _label in explorer.successors(state):
            has_successor = True
            break
        if has_successor:
            continue
        time_bounded = all(
            state.zone.upper_bound(x) < INF
            for x in range(1, compiled.n_clocks)
        ) and compiled.n_clocks > 1
        if time_bounded or compiled.n_clocks == 1:
            stuck.append(compiled.state_description(state))
    return DeadlockReport(stuck_states=stuck, visited=len(states))
