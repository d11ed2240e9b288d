"""Generic symbolic queries and the shared-exploration query planner.

Besides the single-purpose helpers (:func:`sup_clock`,
:func:`zone_graph_stats`), this module hosts :func:`check_many`: a
planner that compiles a *batch* of reachability / safety /
bounded-response / sup-clock / statistics queries into **one**
multi-observer sweep of the zone graph, in the spirit of on-the-fly
observer composition (Chupilko & Kamkin 2013; Abid, Dal Zilio &
Le Botlan 2013).  The paper's experiments chain several queries over
the same PSM — the planner removes the per-query re-exploration.

All query functions accept ``jobs=`` to route the sweep through the
sharded parallel explorer (:mod:`repro.mc.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.mc.observers import (
    OBS_CLOCK,
    OBS_FLAG,
    BoundedResponseResult,
    DelayBound,
    _default_ceiling,
    instrument_response,
    resolve_sup_step,
)
from repro.mc.parallel import make_explorer
from repro.mc.reachability import (
    ReachabilityResult,
    SafetyResult,
    StateFormula,
)
from repro.mc.state import SymbolicState
from repro.ta.model import Network

__all__ = [
    "BatchOutcome",
    "BoundedResponseQuery",
    "ClockSupQuery",
    "ReachQuery",
    "ResponseSupQuery",
    "SafetyQuery",
    "StatsQuery",
    "ZoneGraphStats",
    "check_many",
    "sup_clock",
    "zone_graph_stats",
]


def sup_clock(
    network: Network,
    clock_name: str,
    condition: StateFormula | None = None,
    *,
    cap: int = 1 << 22,
    initial_ceiling: int = 1024,
    max_states: int = 1_000_000,
    zone_backend: str | None = None,
    jobs: int | None = None,
    abstraction: str | None = None,
) -> DelayBound:
    """Supremum of a clock over reachable states satisfying a formula.

    Uses the same iterative-ceiling scheme as
    :func:`repro.mc.observers.max_response_delay`: the result is exact
    once it falls strictly below the extrapolation ceiling.
    """
    ceiling = initial_ceiling
    while True:
        explorer = make_explorer(
            network, jobs=jobs,
            extra_max_constants={clock_name: ceiling},
            max_states=max_states, zone_backend=zone_backend,
            abstraction=abstraction)
        compiled = explorer.compiled
        clock_idx = compiled.clock_id_by_name(clock_name)
        compiled.protect_clocks([clock_idx])
        predicate = (condition.compile(compiled)
                     if condition is not None else None)
        best: list[int | None] = [None]

        def visit(state: SymbolicState) -> None:
            if predicate is not None and not predicate(state):
                return
            upper = state.zone.upper_bound(clock_idx)
            if best[0] is None or upper > best[0]:
                best[0] = upper

        result = explorer.explore(visit=visit)
        done, ceiling = resolve_sup_step(best[0], ceiling, cap,
                                         result.visited)
        if done is not None:
            return done


@dataclass
class ZoneGraphStats:
    """Size metrics of a fully explored zone graph."""

    states: int
    transitions: int
    discrete_configurations: int

    def __str__(self) -> str:
        return (f"{self.states} symbolic states, "
                f"{self.transitions} transitions, "
                f"{self.discrete_configurations} discrete configurations")


def zone_graph_stats(
    network: Network,
    *,
    extra_max_constants: Mapping[str, int] | None = None,
    max_states: int = 1_000_000,
    zone_backend: str | None = None,
    lazy_subsumption: bool = False,
    jobs: int | None = None,
    abstraction: str | None = None,
) -> ZoneGraphStats:
    """Fully explore a network and report its zone-graph size.

    ``zone_backend`` selects the DBM kernel (identical results either
    way); ``jobs`` routes the sweep through the sharded parallel
    explorer (identical results again — in the default eager mode);
    ``lazy_subsumption`` skips expanding waiting states whose zones
    were evicted by larger ones — the reduced zone graph is unchanged
    but the states/transitions tallies shrink, so leave it off when
    comparing against published seed numbers.  Combining
    ``lazy_subsumption`` with ``jobs`` prunes slightly less than the
    sequential lazy explorer (tallies land between eager and
    sequential-lazy; see :mod:`repro.mc.parallel`).
    """
    explorer = make_explorer(
        network, jobs=jobs, extra_max_constants=extra_max_constants,
        max_states=max_states, zone_backend=zone_backend,
        lazy_subsumption=lazy_subsumption, abstraction=abstraction)
    keys: set = set()

    def visit(state: SymbolicState) -> None:
        keys.add(state.key())

    result = explorer.explore(visit=visit)
    return ZoneGraphStats(
        states=result.visited,
        transitions=result.transitions,
        discrete_configurations=len(keys),
    )


# ======================================================================
# Shared-exploration query planner
# ======================================================================
@dataclass(frozen=True)
class ReachQuery:
    """``E<> formula`` — answered by a :class:`ReachabilityResult`."""

    formula: StateFormula


@dataclass(frozen=True)
class SafetyQuery:
    """``A[] ¬bad`` — answered by a :class:`SafetyResult`."""

    bad: StateFormula


@dataclass(frozen=True)
class BoundedResponseQuery:
    """``P(Δ)``: trigger ⤳≤deadline response — a
    :class:`BoundedResponseResult`."""

    trigger: str
    response: str
    deadline: int


@dataclass(frozen=True)
class ResponseSupQuery:
    """Exact sup of a trigger→response delay — a :class:`DelayBound`."""

    trigger: str
    response: str
    cap: int = 1 << 22
    initial_ceiling: int | None = None


@dataclass(frozen=True)
class ClockSupQuery:
    """Sup of a clock over states satisfying a formula — a
    :class:`DelayBound`."""

    clock: str
    condition: StateFormula | None = None
    cap: int = 1 << 22
    initial_ceiling: int = 1024


@dataclass(frozen=True)
class StatsQuery:
    """Zone-graph size metrics — a :class:`ZoneGraphStats`."""


@dataclass
class BatchOutcome:
    """Results of one :func:`check_many` call, in query order.

    ``explorations`` counts the zone-graph sweeps the batch needed —
    1 unless a sup query had to raise its extrapolation ceiling
    (verifiable externally via
    :func:`repro.mc.explorer.exploration_count`).
    """

    results: tuple = field(default_factory=tuple)
    explorations: int = 0
    visited: int = 0
    transitions: int = 0
    #: Per-target maximum over the final sweep's visited states,
    #: keyed by the ``track_maxima`` entry (a variable name, or a
    #: tuple of names tracked as their sum); ``None`` = not requested.
    maxima: dict | None = None
    #: Whether the final sweep covered the full reachable state space
    #: (False when an early stop resolved every hit query first).
    complete: bool = True

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)


class _HitObserver:
    """Observer for reach-style queries: record the first satisfying
    state (the same state the individual BFS query would stop at)."""

    __slots__ = ("predicate", "state")

    def __init__(self, predicate):
        self.predicate = predicate
        self.state = None

    def visit(self, state: SymbolicState) -> bool:
        """Returns True when this visit resolved the query."""
        if self.state is not None or not self.predicate(state):
            return False
        self.state = state
        return True


class _SupObserver:
    """Observer tracking the encoded upper bound of one clock."""

    __slots__ = ("clock_idx", "flag_pos", "predicate", "best")

    def __init__(self, clock_idx: int, flag_pos: int | None = None,
                 predicate=None):
        self.clock_idx = clock_idx
        self.flag_pos = flag_pos
        self.predicate = predicate
        self.best: int | None = None

    def visit(self, state: SymbolicState) -> None:
        if self.flag_pos is not None and state.vals[self.flag_pos] != 1:
            return
        if self.predicate is not None and not self.predicate(state):
            return
        upper = state.zone.upper_bound(self.clock_idx)
        if self.best is None or upper > self.best:
            self.best = upper


def check_many(
    network: Network,
    queries: Sequence[object],
    *,
    trace: bool = True,
    max_states: int = 1_000_000,
    zone_backend: str | None = None,
    jobs: int | None = None,
    lazy_subsumption: bool = False,
    abstraction: str | None = None,
    track_maxima: "Sequence[str | tuple[str, ...]]" = (),
) -> BatchOutcome:
    """Answer a batch of queries with one shared exploration.

    The planner

    1. instruments the network once for every distinct
       (trigger, response) pair the batch mentions (fresh observer
       clock/flag per pair — behavior-preserving, so verdicts match
       the individually-instrumented runs),
    2. merges the extrapolation requirements (response deadlines and
       sup ceilings, per clock, by maximum — Extra_M only gets finer,
       which preserves every verdict and exact supremum), and
    3. runs one exploration evaluating all observers per stored state,
       stopping early only when every query is hit-resolvable and has
       hit.

    Per-query *verdicts and sup values* always match the individual
    ``check_reachable`` / ``check_safety`` /
    ``check_bounded_response`` / ``sup_clock`` /
    ``max_response_delay`` calls.  Witness/counterexample strings and
    traces match them too when the batch needs no instrumentation
    beyond the individual run's — in particular, a single-query batch
    *is* the individual run, tallies and traces included.  With
    several (trigger, response) pairs in one batch, the shared sweep
    runs on the jointly-instrumented network, so witness descriptions
    and trace labels additionally mention the other pairs' observer
    clocks/flags (``obs_w2 = 0, obs_tracking2 = 1`` …) — the same
    underlying behavior, differently annotated.  The
    ``visited``/``transitions`` tallies are those of the shared sweep
    (one exploration instead of one per query).  A second sweep
    happens only when a sup query's value reached its extrapolation
    ceiling (the classic iterative scheme);
    ``BatchOutcome.explorations`` reports the count.

    ``track_maxima`` lists discrete variables — or tuples of
    variables, tracked as their *sum* — whose maximum over the
    visited states should be reported in ``BatchOutcome.maxima`` — a
    read-only observation that changes no verdict, tally or trace.
    The portfolio's verdict memo uses it to certify that buffer
    occupancy (including combined ``count + staged`` occupancy) stays
    below erased capacity literals; pair it with
    ``BatchOutcome.complete``, which says whether the final sweep
    covered the full reachable state space.
    """
    queries = list(queries)
    for query in queries:
        if not isinstance(query, (ReachQuery, SafetyQuery,
                                  BoundedResponseQuery,
                                  ResponseSupQuery, ClockSupQuery,
                                  StatsQuery)):
            raise TypeError(f"unsupported query {query!r}")

    # ---- one instrumentation per distinct (trigger, response) pair ----
    pairs: list[tuple[str, str]] = []
    for query in queries:
        if isinstance(query, (BoundedResponseQuery, ResponseSupQuery)):
            pair = (query.trigger, query.response)
            if pair not in pairs:
                pairs.append(pair)
    instrumented = network
    pair_obs: dict[tuple[str, str], tuple[str, str]] = {}
    for index, (trigger, response) in enumerate(pairs):
        suffix = "" if index == 0 else str(index + 1)
        clock, flag = OBS_CLOCK + suffix, OBS_FLAG + suffix
        instrumented = instrument_response(
            instrumented, trigger, response, clock=clock, flag=flag)
        pair_obs[(trigger, response)] = (clock, flag)
    free_map = {flag: clock for clock, flag in pair_obs.values()}

    # ---- extrapolation requirements (mutable for the ceiling loop) ----
    deadlines: dict[str, int] = {}
    sup_state: dict[int, dict] = {}  # query index -> ceiling loop state
    for index, query in enumerate(queries):
        if isinstance(query, BoundedResponseQuery):
            clock, _ = pair_obs[(query.trigger, query.response)]
            deadlines[clock] = max(deadlines.get(clock, 0),
                                   query.deadline + 1)
        elif isinstance(query, ResponseSupQuery):
            clock, _ = pair_obs[(query.trigger, query.response)]
            sup_state[index] = {
                "clock": clock,
                "ceiling": (query.initial_ceiling
                            or _default_ceiling(network)),
                "cap": query.cap,
                "done": None,
            }
        elif isinstance(query, ClockSupQuery):
            sup_state[index] = {
                "clock": query.clock,
                "ceiling": query.initial_ceiling,
                "cap": query.cap,
                "done": None,
            }
    hit_indices = [i for i, q in enumerate(queries)
                   if isinstance(q, (ReachQuery, SafetyQuery,
                                     BoundedResponseQuery))]
    full_sweep = len(hit_indices) < len(queries)
    trace_on = trace and bool(hit_indices)

    explorations = 0
    while True:
        extra: dict[str, int] = dict(deadlines)
        for state in sup_state.values():
            extra[state["clock"]] = max(extra.get(state["clock"], 0),
                                        state["ceiling"])
        explorer = make_explorer(
            instrumented, jobs=jobs, trace=trace_on,
            extra_max_constants=extra, max_states=max_states,
            free_clock_when_zero=free_map, zone_backend=zone_backend,
            lazy_subsumption=lazy_subsumption, abstraction=abstraction)
        compiled = explorer.compiled

        observers: dict[int, object] = {}
        for index, query in enumerate(queries):
            if isinstance(query, ReachQuery):
                observers[index] = _HitObserver(
                    query.formula.compile(compiled))
            elif isinstance(query, SafetyQuery):
                observers[index] = _HitObserver(
                    query.bad.compile(compiled))
            elif isinstance(query, BoundedResponseQuery):
                clock, flag = pair_obs[(query.trigger, query.response)]
                formula = StateFormula(
                    data=f"{flag} == 1",
                    clocks=f"{clock} > {query.deadline}")
                observers[index] = _HitObserver(
                    formula.compile(compiled))
            elif isinstance(query, ResponseSupQuery):
                clock, flag = pair_obs[(query.trigger, query.response)]
                observers[index] = _SupObserver(
                    compiled.clock_id_by_name(clock),
                    flag_pos=compiled.var_pos(flag))
            elif isinstance(query, ClockSupQuery):
                clock_idx = compiled.clock_id_by_name(query.clock)
                compiled.protect_clocks([clock_idx])
                predicate = (query.condition.compile(compiled)
                             if query.condition is not None else None)
                observers[index] = _SupObserver(clock_idx,
                                                predicate=predicate)
            elif isinstance(query, StatsQuery):
                observers[index] = keys = set()
        pending = len(hit_indices)
        hit_observers = [observers[i] for i in hit_indices]
        sup_observers = [observers[i] for i in sup_state]
        stats_sets = [observers[i] for i, q in enumerate(queries)
                      if isinstance(q, StatsQuery)]
        # Reset per sweep: positions are compilation-specific and a
        # ceiling retry re-visits every state anyway.  Each target is
        # a variable name or a tuple of names (tracked as their sum —
        # the shape of an erased capacity comparison's left-hand side).
        watch = [
            (slot, tuple(compiled.var_pos(name) for name in
                         (target if isinstance(target, tuple)
                          else (target,))))
            for slot, target in enumerate(track_maxima)
        ]
        watch_best = [None] * len(watch)

        def visit(state: SymbolicState) -> None:
            nonlocal pending
            for observer in hit_observers:
                if observer.visit(state):
                    pending -= 1
            for observer in sup_observers:
                observer.visit(state)
            for keys in stats_sets:
                keys.add(state.key())
            for slot, positions in watch:
                value = 0
                for pos in positions:
                    value += state.vals[pos]
                best = watch_best[slot]
                if best is None or value > best:
                    watch_best[slot] = value

        stop = None
        if not full_sweep:
            def stop(_state: SymbolicState) -> bool:
                return pending == 0

        result = explorer.explore(stop=stop, visit=visit)
        explorations += 1

        # ---- iterative sup ceilings (max_response_delay's scheme) ----
        retry = False
        for index, state in sup_state.items():
            if state["done"] is not None:
                continue
            done, next_ceiling = resolve_sup_step(
                observers[index].best, state["ceiling"], state["cap"],
                result.visited)
            if done is not None:
                state["done"] = done
            else:
                state["ceiling"] = next_ceiling
                retry = True
        if retry:
            # Re-measure every sup in the shared re-sweep (exact
            # values are ceiling-independent; already-unbounded
            # queries re-resolve as unbounded without another retry).
            for state in sup_state.values():
                state["done"] = None
            continue
        break

    # ---- package per-query results ------------------------------------
    results: list[object] = []
    for index, query in enumerate(queries):
        observer = observers[index]
        if isinstance(query, (ReachQuery, SafetyQuery,
                              BoundedResponseQuery)):
            hit_state = observer.state
            witness = (compiled.state_description(hit_state)
                       if hit_state is not None else None)
            hit_trace = (explorer.rebuild_trace(hit_state)
                         if hit_state is not None else None)
            if isinstance(query, ReachQuery):
                results.append(ReachabilityResult(
                    reachable=hit_state is not None,
                    formula=query.formula.describe(),
                    visited=result.visited, witness=witness,
                    trace=hit_trace,
                    transitions=result.transitions))
            elif isinstance(query, SafetyQuery):
                results.append(SafetyResult(
                    holds=hit_state is None,
                    formula=query.bad.describe(),
                    visited=result.visited, counterexample=witness,
                    trace=hit_trace,
                    transitions=result.transitions))
            else:
                results.append(BoundedResponseResult(
                    holds=hit_state is None,
                    trigger=query.trigger, response=query.response,
                    deadline=query.deadline,
                    visited=result.visited, counterexample=witness,
                    trace=hit_trace,
                    transitions=result.transitions))
        elif isinstance(query, (ResponseSupQuery, ClockSupQuery)):
            results.append(sup_state[index]["done"])
        else:  # StatsQuery
            results.append(ZoneGraphStats(
                states=result.visited,
                transitions=result.transitions,
                discrete_configurations=len(observer)))
    maxima = None
    if track_maxima:
        maxima = {target: watch_best[slot]
                  for slot, target in enumerate(track_maxima)}
    return BatchOutcome(results=tuple(results),
                        explorations=explorations,
                        visited=result.visited,
                        transitions=result.transitions,
                        maxima=maxima,
                        complete=result.complete)
