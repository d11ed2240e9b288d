"""Zone-based model checker for the timed-automata language.

Public API:

* :func:`check_reachable` / :func:`check_safety` — ``E<>`` / ``A[]``
* :func:`check_bounded_response` — the paper's ``P(Δ)`` properties
* :func:`max_response_delay` — exact sup of a trigger→response delay
* :func:`sup_clock` — generic clock suprema
* :func:`check_many` — one shared exploration answering a query batch
* :func:`find_deadlocks` — stuck-state detection
* :class:`ZoneGraphExplorer` — the underlying engine
* :class:`ShardedZoneGraphExplorer` — its parallel twin (``jobs=``)
* :mod:`repro.mc.portfolio` — cross-model portfolio verification
  (import the submodule directly: it sits above the core framework
  layer, so re-exporting it here would create an import cycle)
"""

from repro.mc.deadlock import DeadlockReport, find_deadlocks
from repro.mc.explorer import (
    ExplorationLimit,
    ExplorationResult,
    ZoneGraphExplorer,
)
from repro.mc.observers import (
    OBS_CLOCK,
    OBS_FLAG,
    BoundedResponseResult,
    DelayBound,
    check_bounded_response,
    instrument_response,
    max_response_delay,
)
from repro.mc.parallel import (
    ShardedZoneGraphExplorer,
    resolve_jobs,
)
from repro.mc.queries import (
    BatchOutcome,
    BoundedResponseQuery,
    ClockSupQuery,
    ReachQuery,
    ResponseSupQuery,
    SafetyQuery,
    StatsQuery,
    ZoneGraphStats,
    check_many,
    sup_clock,
    zone_graph_stats,
)
from repro.mc.reachability import (
    ReachabilityResult,
    SafetyResult,
    StateFormula,
    check_reachable,
    check_safety,
)
from repro.mc.state import CompiledNetwork, SymbolicState
from repro.mc.traces import format_trace, trace_channels

__all__ = [
    "OBS_CLOCK",
    "OBS_FLAG",
    "BatchOutcome",
    "BoundedResponseQuery",
    "BoundedResponseResult",
    "ClockSupQuery",
    "ReachQuery",
    "ResponseSupQuery",
    "SafetyQuery",
    "ShardedZoneGraphExplorer",
    "StatsQuery",
    "CompiledNetwork",
    "DeadlockReport",
    "DelayBound",
    "ExplorationLimit",
    "ExplorationResult",
    "ReachabilityResult",
    "SafetyResult",
    "StateFormula",
    "SymbolicState",
    "ZoneGraphExplorer",
    "ZoneGraphStats",
    "check_bounded_response",
    "check_many",
    "check_reachable",
    "check_safety",
    "find_deadlocks",
    "format_trace",
    "resolve_jobs",
    "instrument_response",
    "max_response_delay",
    "sup_clock",
    "trace_channels",
    "zone_graph_stats",
]
