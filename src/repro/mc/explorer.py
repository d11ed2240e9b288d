"""Zone-graph exploration (forward symbolic reachability).

The explorer enumerates the symbolic transition system of a network:
states are (location vector, valuation, canonical delay-closed zone).
Every stored zone already includes the time elapse allowed by the
invariants at its locations, so "state satisfies φ" means "some
concrete run reaches a configuration in the zone satisfying φ".

Termination comes from Extra_M extrapolation plus the passed-list
inclusion check — the textbook algorithm (Bengtsson & Yi 2003), with
UPPAAL's committed-location priority, urgent locations and urgent
channels layered on top.

Performance architecture (see ``docs/PERFORMANCE.md``):

* **Memoized successor plans.**  Everything about a successor except
  its zone — enabled moves, data-guard filtering, target locations,
  variable updates, the clocks to free, the invariant constraints and
  the delay decision — depends only on the *discrete* part of a state.
  The explorer compiles this once per discrete configuration into a
  list of :class:`_MovePlan` steps; expanding a state then runs pure
  zone arithmetic.
* **Fused, allocation-lean zone pipeline.**  Each plan step executes
  copy → constrain* → reset*/copy* → free* → invariants → up →
  extrapolate on a single reusable scratch matrix (``copy_from`` +
  ``constrain_all`` with early exit on emptiness); a fresh zone is
  materialized only for successors that survive all emptiness checks.
* **Batched passed-list subsumption.**  Per discrete configuration the
  stored zones live in a backend-paired bucket
  (:mod:`repro.zones.store`) that answers inclusion/eviction sweeps in
  one pass instead of per-zone ``includes`` calls.
* **Subsumption-aware waiting list** (opt-in ``lazy_subsumption``):
  when a newly stored zone evicts subsumed zones from the passed list,
  their waiting-list entries are marked dead and skipped on pop
  instead of expanded.  The final reduced zone graph is provably
  unchanged (successor computation is monotone in the zone), but the
  *visit order and the visited/transitions tallies* shrink, so the
  default stays eager — ``zone_graph_stats`` and the paper experiments
  report bit-identical numbers to the seed implementation.

The zone backend (pure-Python reference, vectorized numpy or native)
is chosen per explorer via ``zone_backend=`` (``None`` means ``auto``);
every backend yields bit-identical zone graphs.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.mc.state import CompiledEdge, CompiledNetwork, SymbolicState
from repro.ta.model import ModelError, Network
from repro.zones.backend import resolve_backend
from repro.zones.costmodel import BackendHint

__all__ = [
    "ExplorationLimit",
    "ExplorationResult",
    "ZoneGraphExplorer",
    "exploration_count",
]


class ExplorationLimit(Exception):
    """Raised when the state-space budget is exhausted."""


#: Process-wide tally of exploration runs (sequential and sharded).
#: The shared-exploration query planner asserts against it: a batch of
#: queries compiled into one sweep must bump this exactly once.  The
#: lock keeps the tally exact when portfolio scheduler threads start
#: explorations concurrently (``int += 1`` is not atomic in CPython).
_EXPLORATIONS = 0
_EXPLORATIONS_LOCK = threading.Lock()


def exploration_count() -> int:
    """How many zone-graph explorations this process has started."""
    return _EXPLORATIONS


def _count_exploration() -> None:
    global _EXPLORATIONS
    with _EXPLORATIONS_LOCK:
        _EXPLORATIONS += 1


@dataclass
class ExplorationResult:
    """Outcome of one exploration run."""

    #: Number of symbolic states stored (after inclusion reduction).
    visited: int
    #: First state satisfying the stop predicate, if any.
    stopped: SymbolicState | None = None
    #: Transition labels from the initial state to ``stopped``
    #: (only when the explorer was created with ``trace=True``).
    trace: list[str] | None = None
    #: True when the full zone graph was explored (no early stop).
    complete: bool = True
    #: Number of successor computations performed.
    transitions: int = 0

    @property
    def found(self) -> bool:
        return self.stopped is not None


class _MovePlan:
    """One discrete move, fully resolved for a discrete configuration.

    Built once per (locations, valuation) pair: the data guards have
    already been evaluated (moves failing them never get a plan), the
    variable updates have been folded into ``vals``, and the zone work
    is reduced to op lists the fused pipeline replays on a scratch
    matrix.  ``error`` carries a deferred range-check failure that the
    seed semantics raise only when the guard-constrained zone is
    non-empty.
    """

    __slots__ = ("guard_ops", "zone_ops", "free_clocks", "invariant_ops",
                 "delay", "locs", "vals", "label", "error", "lu",
                 "channel_idx")

    def __init__(self, guard_ops, zone_ops, free_clocks, invariant_ops,
                 delay, locs, vals, label, error, lu=None,
                 channel_idx=None):
        self.guard_ops = guard_ops
        self.zone_ops = zone_ops
        self.free_clocks = free_clocks
        self.invariant_ops = invariant_ops
        self.delay = delay
        self.locs = locs
        self.vals = vals
        self.label = label
        self.error = error
        #: ``(lower, upper)`` Extra⁺_LU maps of the *target* location
        #: vector, or ``None`` under Extra_M.
        self.lu = lu
        #: Synchronization channel of the move (``None`` = internal) —
        #: the conformance monitor partitions plans on it.
        self.channel_idx = channel_idx


class _WaitEntry:
    """Waiting-list node; ``alive`` is cleared when the zone is evicted.

    Shared with the sharded explorer, which creates entries before a
    candidate's state is materialized (hence the ``None`` default).
    """

    __slots__ = ("state", "alive")

    def __init__(self, state: SymbolicState | None = None):
        self.state = state
        self.alive = True


class ZoneGraphExplorer:
    """Forward explorer over a compiled network.

    Parameters
    ----------
    network:
        The model to explore.
    extra_max_constants:
        Optional per-clock extrapolation ceilings (display names), for
        sup queries that must observe values above the model's own
        constants.
    trace:
        Record parent links so counterexample traces can be rebuilt.
    max_states:
        Hard cap on stored symbolic states.
    zone_backend:
        Zone-kernel choice (``auto``/``reference``/``numpy``/
        ``native``); ``None`` means ``auto``.
    lazy_subsumption:
        Skip waiting-list entries whose zone was evicted by a larger
        one before they were expanded.  The reduced zone graph is
        unchanged but visit order and the visited/transitions counts
        shrink, so this is opt-in.
    abstraction:
        Extrapolation operator: ``"extra_m"`` (the default — global
        per-clock maximum constants, the seed behavior every pin is
        tied to) or ``"extra_lu"`` (per-location Extra⁺_LU bounds —
        same verdicts, bounds and suprema, smaller zone graphs).
        ``None`` means ``extra_m``.
    """

    def __init__(self, network: Network, *,
                 extra_max_constants: Mapping[str, int] | None = None,
                 trace: bool = False,
                 max_states: int = 1_000_000,
                 free_clock_when_zero: Mapping[str, str] | None = None,
                 zone_backend: str | None = None,
                 lazy_subsumption: bool = False,
                 abstraction: str | None = None):
        self.network = network
        self.compiled = CompiledNetwork(
            network, extra_max_constants=extra_max_constants,
            abstraction=abstraction)
        self.abstraction = self.compiled.abstraction
        self.trace_enabled = trace
        self.max_states = max_states
        # ``auto`` resolution consults the compiled network's shape
        # (clock count + the portfolio scheduler's structural-size
        # measure); wave_width=1 models this sequential explorer's
        # one-state-at-a-time kernel calls.
        self.backend = resolve_backend(zone_backend, hint=BackendHint(
            n_clocks=self.compiled.n_clocks,
            structural_size=sum(len(a.locations) + len(a.edges)
                                for a in network.automata),
            wave_width=1))
        self.lazy_subsumption = lazy_subsumption
        self._dbm = self.backend.dbm
        self._bucket_cls = self.backend.bucket
        # Successor plans, memoized per discrete configuration.  Built
        # lazily so query compilation (protect_clocks) can still adjust
        # the active-clock tables before the first expansion; the
        # version check below drops stale plans if that happens after.
        self._plans: dict[tuple, list[_MovePlan]] = {}
        self._plans_version = self.compiled.reduction_version
        # Valuation-conditional clock freeing: {flag var -> clock}.
        # The named clock is freed in every state where the flag is 0.
        # Sound whenever the clock is only ever *read* under flag == 1
        # — the observer instrumentation's situation — and essential to
        # keep instrumented zone graphs close to the base model's size.
        self._conditional_free: list[tuple[int, int]] = []
        for flag, clock in (free_clock_when_zero or {}).items():
            self._conditional_free.append(
                (self.compiled.var_pos(flag),
                 self.compiled.clock_id_by_name(clock)))
        #: Parent links of the most recent traced exploration
        #: (``{state: (parent state | None, label)}``, keyed by the
        #: stored state objects themselves — a zone snapshot per key
        #: would cost a Python int per matrix entry); lets the query
        #: planner rebuild one trace per observer after a shared sweep.
        self.parents: dict[SymbolicState,
                           tuple[SymbolicState | None, str]] = {}
        #: Per-key passed buckets of the most recent exploration
        #: (diagnostics/benchmarks only).
        self.passed_store: dict | None = None

    # ------------------------------------------------------------------
    def initial_state(self) -> SymbolicState:
        compiled = self.compiled
        zone = self._dbm.zero(compiled.n_clocks)
        locs = compiled.initial_locs
        vals = compiled.initial_vals
        self._free_inactive(zone, locs)
        self._free_conditional(zone, vals)
        self._apply_invariants(zone, locs)
        if zone.is_empty():
            raise ModelError(
                "initial state violates the location invariants")
        env = compiled.data_env(vals)
        if not self._delay_forbidden(locs, env):
            zone.up()
            self._apply_invariants(zone, locs)
        if self.abstraction.is_lu:
            zone.extrapolate_lu(*compiled.lu_bounds_for(locs))
        else:
            zone.extrapolate_max(compiled.max_constants)
        return SymbolicState(locs, vals, zone)

    def _free_inactive(self, zone, locs: tuple[int, ...]) -> None:
        """Active-clock reduction: free clocks dead at these locations."""
        compiled = self.compiled
        for a in range(compiled.n_automata):
            for clock_idx in compiled.inactive_clocks[a][locs[a]]:
                zone.free(clock_idx)

    def _free_conditional(self, zone,
                          vals: tuple[int, ...]) -> None:
        """Free clocks whose guarding flag is currently 0."""
        for var_pos, clock_idx in self._conditional_free:
            if vals[var_pos] == 0:
                zone.free(clock_idx)

    def _apply_invariants(self, zone, locs: tuple[int, ...]) -> None:
        compiled = self.compiled
        for a in range(compiled.n_automata):
            for i, j, bound in compiled.invariant_ops[a][locs[a]]:
                zone.constrain(i, j, bound)

    def _delay_forbidden(self, locs: tuple[int, ...],
                         env: Mapping[str, int]) -> bool:
        compiled = self.compiled
        return (compiled.any_committed(locs)
                or compiled.any_urgent_location(locs)
                or compiled.urgent_sync_enabled(locs, env))

    # ------------------------------------------------------------------
    # Successor plans
    # ------------------------------------------------------------------
    def _build_plans(self, locs: tuple[int, ...],
                     vals: tuple[int, ...]) -> list[_MovePlan]:
        """Resolve every enabled move of a discrete configuration."""
        compiled = self.compiled
        env = compiled.data_env(vals)
        lu_for = (compiled.lu_bounds_for if self.abstraction.is_lu
                  else None)
        plans: list[_MovePlan] = []
        for move in compiled.moves(locs, env):
            # Data guards are evaluated on the pre-state (UPPAAL rule).
            if not all(e.guard_fn(env) for e in move):
                continue
            guard_ops = tuple(op for e in move for op in e.clock_ops)
            label = self._move_label(move)
            # Updates in firing order (sender first), sequential data
            # semantics; assignments are range-checked.  A failing
            # check is deferred: the seed raises it only when the
            # guard-constrained zone turns out non-empty.
            zone_ops: list[tuple] = []
            env2: dict[str, int] | None = None
            error: ModelError | None = None
            for edge in move:
                for op in edge.update_ops:
                    if op[0] == "assign":
                        if env2 is None:
                            env2 = dict(env)
                        decl = compiled.var_decls[op[1]]
                        try:
                            env2[op[1]] = decl.check(op[2].eval(env2))
                        except ModelError as exc:
                            error = exc
                            break
                    else:  # reset / copy: pure zone work
                        zone_ops.append(op)
                if error is not None:
                    break
            if error is not None:
                plans.append(_MovePlan(
                    guard_ops, (), (), (), False, locs, vals, label,
                    error, channel_idx=move[0].channel_idx))
                continue
            new_locs = list(locs)
            for edge in move:
                new_locs[edge.auto_idx] = edge.target_idx
            locs2 = tuple(new_locs)
            vals2 = vals if env2 is None else tuple(
                env2[name] for name in compiled.var_names)
            free_clocks: list[int] = []
            for a in range(compiled.n_automata):
                free_clocks.extend(compiled.inactive_clocks[a][locs2[a]])
            for var_pos, clock_idx in self._conditional_free:
                if vals2[var_pos] == 0:
                    free_clocks.append(clock_idx)
            invariant_ops = tuple(
                op for a in range(compiled.n_automata)
                for op in compiled.invariant_ops[a][locs2[a]])
            post_env = env if env2 is None else env2
            delay = not self._delay_forbidden(locs2, post_env)
            plans.append(_MovePlan(
                guard_ops, tuple(zone_ops), tuple(free_clocks),
                invariant_ops, delay, locs2, vals2, label, None,
                lu_for(locs2) if lu_for is not None else None,
                channel_idx=move[0].channel_idx))
        return plans

    def plans_for(self, key: tuple) -> list[_MovePlan]:
        """Memoized successor plans of one discrete configuration."""
        if self._plans_version != self.compiled.reduction_version:
            self._plans.clear()
            self._plans_version = self.compiled.reduction_version
        plans = self._plans.get(key)
        if plans is None:
            plans = self._plans[key] = self._build_plans(*key)
        return plans

    def successors(self, state: SymbolicState) \
            -> Iterator[tuple[SymbolicState, str]]:
        """All symbolic successors with their transition labels."""
        plans = self.plans_for(state.key())
        if not plans:
            return
        src = state.zone
        scratch = None
        max_consts = self.compiled.max_constants
        for plan in plans:
            if scratch is None:
                scratch = src.copy()
            else:
                scratch.copy_from(src)
            if not scratch.constrain_all(plan.guard_ops):
                continue
            if plan.error is not None:
                raise ModelError(
                    f"{plan.error} (while firing {plan.label} from "
                    f"{self.compiled.state_description(state)})"
                ) from plan.error
            for op in plan.zone_ops:
                if op[0] == "reset":
                    scratch.reset(op[1], op[2])
                else:  # copy
                    scratch.assign_clock(op[1], op[2])
            if plan.free_clocks:
                scratch.free_many(plan.free_clocks)
            if not scratch.constrain_all(plan.invariant_ops):
                continue
            if plan.delay:
                scratch.up()
                scratch.constrain_all(plan.invariant_ops)
            if plan.lu is not None:
                scratch.extrapolate_lu(plan.lu[0], plan.lu[1])
            else:
                scratch.extrapolate_max(max_consts)
            if scratch.is_empty():
                continue
            yield SymbolicState(plan.locs, plan.vals,
                                scratch.copy()), plan.label

    @staticmethod
    def _move_label(move: tuple[CompiledEdge, ...]) -> str:
        if len(move) == 1 and move[0].channel_idx is None:
            return move[0].label()
        return " || ".join(e.label() for e in move)

    # ------------------------------------------------------------------
    def explore(
        self,
        stop: Callable[[SymbolicState], bool] | None = None,
        visit: Callable[[SymbolicState], None] | None = None,
    ) -> ExplorationResult:
        """Breadth-first exploration.

        ``stop`` halts the search at the first satisfying state (its
        trace is reconstructed when tracing is on); ``visit`` is called
        once per stored state — use it to accumulate sup-style metrics.
        """
        _count_exploration()
        bucket_cls = self._bucket_cls
        lazy = self.lazy_subsumption
        trace_on = self.trace_enabled
        init = self.initial_state()
        init_entry = _WaitEntry(init)
        bucket = bucket_cls()
        bucket.insert(init.zone, init_entry)
        # ``passed_store`` exposes the live per-key buckets of the most
        # recent exploration — benchmarks read row counts off it as a
        # memory proxy; it is never consulted by the search itself.
        passed: dict[tuple, object] = {init.key(): bucket}
        self.passed_store = passed
        parents = self.parents = {}
        if trace_on:
            parents[init] = (None, "<init>")
        stored = 1
        transitions = 0
        if visit is not None:
            visit(init)
        if stop is not None and stop(init):
            return ExplorationResult(
                visited=stored, stopped=init,
                trace=self._rebuild(parents, init),
                complete=False, transitions=transitions)
        waiting: deque[_WaitEntry] = deque([init_entry])
        while waiting:
            entry = waiting.popleft()
            if lazy and not entry.alive:
                continue
            state = entry.state
            for succ, label in self.successors(state):
                transitions += 1
                key = succ.key()
                bucket = passed.get(key)
                if bucket is None:
                    bucket = bucket_cls()
                    passed[key] = bucket
                elif bucket.covers(succ.zone):
                    continue
                succ_entry = _WaitEntry(succ)
                for evicted in bucket.insert(succ.zone, succ_entry):
                    evicted.alive = False
                stored += 1
                if stored > self.max_states:
                    raise ExplorationLimit(
                        f"exceeded {self.max_states} symbolic states "
                        f"exploring {self.network.name!r}")
                if trace_on:
                    parents[succ] = (state, label)
                if visit is not None:
                    visit(succ)
                if stop is not None and stop(succ):
                    return ExplorationResult(
                        visited=stored, stopped=succ,
                        trace=self._rebuild(parents, succ),
                        complete=False, transitions=transitions)
                waiting.append(succ_entry)
        return ExplorationResult(visited=stored, complete=True,
                                 transitions=transitions)

    def rebuild_trace(self, state: SymbolicState) -> list[str] | None:
        """Trace to ``state`` from the most recent traced exploration.

        ``state`` is a state object stored (and passed to ``visit``)
        during the last :meth:`explore` call; used by the query planner
        to extract one witness trace per observer from a single shared
        sweep.  ``None`` when tracing is off.
        """
        return self._rebuild(self.parents, state)

    def _rebuild(self, parents: dict, state: SymbolicState) \
            -> list[str] | None:
        if not self.trace_enabled:
            return None
        labels: list[str] = []
        current: SymbolicState | None = state
        while current is not None:
            parent, label = parents[current]
            labels.append(label)
            current = parent
        labels.reverse()
        return labels[1:]  # drop the "<init>" marker

    # ------------------------------------------------------------------
    def iter_states(self) -> Iterator[SymbolicState]:
        """Materialize every reachable symbolic state (full search)."""
        states: list[SymbolicState] = []
        self.explore(visit=states.append)
        return iter(states)
