"""Sharded parallel zone-graph exploration.

:class:`ShardedZoneGraphExplorer` runs the same breadth-first
fixpoint as :class:`~repro.mc.explorer.ZoneGraphExplorer` but
restructures each BFS wave into three phases:

1. **Expand** — the frontier is partitioned by discrete-configuration
   key (the same bucket key the passed store shards on).  All states
   of a group share one memoized plan list, so the numpy backend
   expands a whole group through the batched broadcast pipeline
   (:class:`repro.zones.batch.BatchExpander`) instead of state by
   state; the reference backend expands scalarly.  Groups are
   distributed over a thread pool with work-stealing deques (numpy
   and native kernels release the GIL while a batch is in C code; the
   pure-Python reference backend's expansion never leaves the
   interpreter, so its threads buy no speedup).  A
   termination-detection barrier ends the phase when every group of
   the wave has been expanded.
2. **Commit** — candidate successors are merged into the per-key
   passed buckets *in the exact global order the sequential explorer
   would produce them* (frontier order × plan order).  Per shard the
   merge is one batched antichain update
   (:meth:`~repro.zones.store.NumpyPassedBucket.commit_batch`); the
   proof that batching preserves sequential outcomes rests on coverage
   monotonicity (evictions replace zones by supersets).
3. **Scan** — one ordered pass over the wave's candidates replays the
   sequential explorer's observable effects: ``transitions``/``stored``
   tallies, ``max_states`` enforcement, deferred-error raising, trace
   parent links, ``visit``/``stop`` callbacks and the next frontier.

Because successor computation reads nothing from the passed store,
phases 1 and 2+3 commute with the sequential interleaving — the
states, transitions, traces, witnesses and sup values are **bit
identical** to the sequential engine for every ``jobs`` count and
backend (the differential tests in ``tests/test_mc_parallel.py`` pin
this).  The one documented divergence: with ``lazy_subsumption`` the
wave structure prunes slightly *less* than the sequential lazy
explorer (kills discovered mid-wave arrive after the wave was already
expanded), so lazy tallies sit between the eager and sequential-lazy
counts while the reduced zone graph stays identical.

Stored zones are routed through the global zone intern table
(:mod:`repro.zones.intern`), so identical zones recurring across
discrete configurations — and across the queries of a
:func:`repro.mc.queries.check_many` batch — share one matrix and one
``frozen()`` snapshot.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.mc.explorer import (
    ExplorationLimit,
    ExplorationResult,
    ZoneGraphExplorer,
    _WaitEntry,
    _count_exploration,
)
from repro.mc.state import SymbolicState
from repro.ta.model import ModelError, Network
from repro.zones.backend import resolve_backend
from repro.zones.costmodel import BackendHint
from repro.zones.intern import ZoneInternTable, global_intern_table

__all__ = [
    "ENV_JOBS",
    "EngineConfig",
    "ShardedZoneGraphExplorer",
    "WorkStealingPool",
    "current_exploration_context",
    "exploration_context",
    "make_explorer",
    "resolve_jobs",
]

#: Environment override for the default worker count (like
#: ``REPRO_ZONE_BACKEND`` for the kernel choice), read by
#: :meth:`EngineConfig.resolve`.
ENV_JOBS = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int | None:
    """Validate a ``jobs`` spec.

    ``None`` means "sequential engine"; any integer >= 1 selects the
    sharded explorer (``jobs=1`` runs its wave pipeline inline — on
    the numpy backend that alone buys the batched-kernel speedup).
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def make_explorer(network: Network, *, jobs: int | None = None,
                  **kwargs):
    """Explorer factory honoring the resolved ``jobs`` setting."""
    resolved = resolve_jobs(jobs)
    if resolved is None:
        return ZoneGraphExplorer(network, **kwargs)
    return ShardedZoneGraphExplorer(network, jobs=resolved, **kwargs)


# ----------------------------------------------------------------------
# Work-stealing thread pool with a termination-detection barrier
# ----------------------------------------------------------------------
class _Wave:
    """Barrier state for one ``run_wave`` call (supports concurrency)."""

    __slots__ = ("pending", "error", "cv")

    def __init__(self, cv: threading.Condition, pending: int):
        self.cv = cv
        self.pending = pending
        self.error: BaseException | None = None


class WorkStealingPool:
    """Per-worker deques + stealing; one barrier per submitted wave.

    Owners pop from the bottom of their own deque (LIFO keeps a
    worker's cache hot on its shard), idle workers steal from the top
    of a victim's deque (FIFO steals take the oldest, largest-grained
    work).  ``run_wave`` blocks on a termination-detection barrier: a
    per-wave pending counter that the last finishing worker drives to
    zero before notifying that wave's submitter.

    Waves are independent, so *multiple* coordinating threads may call
    :meth:`run_wave` concurrently — the portfolio scheduler
    (:mod:`repro.mc.portfolio`) runs many explorations over one pool,
    and their waves interleave freely across the workers.  Errors stay
    scoped to the wave whose task raised them.
    """

    def __init__(self, workers: int):
        self.width = workers
        #: Waves submitted over the pool's lifetime — the non-timing
        #: proxy for barrier/steal scheduling overhead (each wave is
        #: one submit + one termination-detection barrier).
        self.waves = 0
        self._deques: list[deque] = [deque() for _ in range(workers)]
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._rr = 0  # rotating placement offset across waves
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(i,),
                             name=f"shard-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def run_wave(self, tasks: list[Callable[[], None]]) -> None:
        """Run all tasks; return when every one finished (the barrier)."""
        if not tasks:
            return
        wave = _Wave(threading.Condition(self._lock), len(tasks))
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool is shut down")
            self.waves += 1
            offset = self._rr
            self._rr = (offset + len(tasks)) % self.width
            for i, task in enumerate(tasks):
                self._deques[(offset + i) % self.width].append(
                    (wave, task))
            self._work_cv.notify_all()
            while wave.pending:
                wave.cv.wait()
            if wave.error is not None:
                raise wave.error

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            self._work_cv.notify_all()
        for thread in self._threads:
            thread.join()

    # -- worker side ---------------------------------------------------
    def _steal(self, me: int):
        own = self._deques[me]
        if own:
            return own.pop()
        for offset in range(1, self.width):
            victim = self._deques[(me + offset) % self.width]
            if victim:
                return victim.popleft()
        return None

    def _worker_loop(self, me: int) -> None:
        while True:
            with self._lock:
                item = self._steal(me)
                while item is None:
                    if self._shutdown:
                        return
                    self._work_cv.wait()
                    item = self._steal(me)
            wave, task = item
            try:
                task()
            except BaseException as exc:  # propagated via run_wave
                with self._lock:
                    if wave.error is None:
                        wave.error = exc
            finally:
                with self._lock:
                    wave.pending -= 1
                    if wave.pending == 0:
                        wave.cv.notify_all()


# Backwards-compatible private alias (pre-portfolio name).
_WorkStealingPool = WorkStealingPool


# ----------------------------------------------------------------------
# Thread-local exploration context (shared pool / intern table)
# ----------------------------------------------------------------------
class _ExplorationContext:
    """Defaults injected into every explorer built on this thread."""

    __slots__ = ("pool", "intern")

    def __init__(self, pool: WorkStealingPool | None,
                 intern: bool | ZoneInternTable | None):
        self.pool = pool
        self.intern = intern


_context = threading.local()


def current_exploration_context() -> _ExplorationContext | None:
    """The context installed on this thread, if any."""
    return getattr(_context, "value", None)


@contextmanager
def exploration_context(*, pool: WorkStealingPool | None = None,
                        intern: bool | ZoneInternTable | None = None):
    """Route every exploration started on this thread through shared
    infrastructure.

    While active, :class:`ShardedZoneGraphExplorer` instances built on
    the current thread default to ``pool``/``intern`` instead of
    creating a private worker pool or using the global intern table.
    The query helpers and the verification framework build their
    explorers deep inside their call chains, so the context is how the
    portfolio scheduler threads one shared pool through a whole
    pipeline without widening every signature.  Contexts nest; the
    previous one is restored on exit.  The context is thread-local by
    design — concurrent portfolio jobs each install their own view.
    """
    previous = current_exploration_context()
    _context.value = _ExplorationContext(pool, intern)
    try:
        yield
    finally:
        _context.value = previous


# ----------------------------------------------------------------------
# Engine configuration (the one place REPRO_* is read)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineConfig:
    """The resolved engine knobs, passed explicitly to every layer.

    :meth:`resolve` is the only code that reads the ``REPRO_*``
    environment variables.  It runs once, when a
    :class:`~repro.api.Session`, the CLI or the daemon's
    :class:`~repro.service.scheduler.JobScheduler` is constructed;
    from there the values travel as plain arguments (the framework's
    and the portfolio verifier's ``backend=``/``abstraction=``/
    ``jobs=``).  Below that level ``None`` means the default, never a
    process-wide setting.  The snapshot is picklable, so process
    workers receive it with each job.
    """

    #: Concrete backend name (``"reference"``/``"numpy"``/``"native"``)
    #: — or the literal ``"auto"``: explorers (and worker processes)
    #: then re-resolve per model, which is safe because every backend
    #: is bit-identical, and necessary so a portfolio mixing tiny and
    #: large models never pins all of them to one frozen choice.
    backend: str = "auto"
    #: Concrete abstraction name (``"extra_m"``/``"extra_lu"``).
    abstraction: str = "extra_m"
    #: Worker count (``None`` = sequential engine).
    jobs: int | None = None
    #: Portfolio job executor (``"thread"``/``"process"``).
    executor: str = "thread"

    @classmethod
    def resolve(cls, *, backend: str | None = None,
                abstraction: str | None = None,
                jobs: int | None = None,
                executor: str | None = None) -> "EngineConfig":
        """Resolve each knob: explicit argument > ``REPRO_*``
        environment variable > default.

        A malformed variable raises
        :class:`~repro.envvars.EnvVarError` here, at construction
        time, instead of deep inside an exploration.
        """
        from repro.envvars import env_choice, env_int
        from repro.mc.portfolio import (
            _EXECUTORS,
            ENV_EXECUTOR,
            resolve_executor,
        )
        from repro.ta import bounds
        from repro.zones import backend as zone_backend

        if backend is None:
            backend = env_choice(
                zone_backend.ENV_VAR,
                ("auto", *zone_backend._ALIASES), default="auto")
        if abstraction is None:
            abstraction = env_choice(bounds.ENV_ABSTRACTION,
                                     bounds._ALIASES,
                                     default=bounds.EXTRA_M)
        if jobs is None:
            jobs = env_int(ENV_JOBS, minimum=1)
        if executor is None:
            executor = env_choice(ENV_EXECUTOR, _EXECUTORS,
                                  default="thread")
        return cls(
            backend=zone_backend.requested_backend(backend),
            abstraction=bounds.resolve_abstraction(abstraction).name,
            jobs=resolve_jobs(jobs),
            executor=resolve_executor(executor))


# ----------------------------------------------------------------------
# Wave bookkeeping
# ----------------------------------------------------------------------
class _Cand:
    """One candidate successor awaiting its ordered commit."""

    __slots__ = ("key", "locs", "vals", "label", "zone", "row", "src",
                 "entry", "inserted")

    def __init__(self, key, locs, vals, label, zone, row, src):
        self.key = key
        self.locs = locs
        self.vals = vals
        self.label = label
        self.zone = zone   # materialized DBM (scalar path)
        self.row = row     # (n, n) int64 view (batched numpy path)
        self.src = src
        self.entry = _WaitEntry()
        self.inserted = False


class _Err:
    """A deferred range-check error positioned in the commit order."""

    __slots__ = ("error", "label", "src")

    def __init__(self, error, label, src):
        self.error = error
        self.label = label
        self.src = src


class ShardedZoneGraphExplorer:
    """Wave-synchronized parallel twin of :class:`ZoneGraphExplorer`.

    Accepts the sequential explorer's parameters plus:

    jobs:
        Worker count (>= 1).  ``jobs=1`` runs the wave pipeline inline
        — still worthwhile on the numpy backend, whose groups expand
        through the batched kernels.
    intern:
        Zone interning policy: ``True`` (the global table), ``False``
        (no interning) or a private :class:`ZoneInternTable`.
    pool:
        An external :class:`WorkStealingPool` to run expansion waves
        on instead of a private per-exploration pool.  Shared pools
        are never shut down by :meth:`explore`.  When omitted, the thread-local :func:`exploration_context`
        supplies the default — that is how portfolio jobs all land on
        one pool.
    """

    def __init__(self, network: Network, *,
                 jobs: int = 1,
                 extra_max_constants: Mapping[str, int] | None = None,
                 trace: bool = False,
                 max_states: int = 1_000_000,
                 free_clock_when_zero: Mapping[str, str] | None = None,
                 zone_backend: str | None = None,
                 lazy_subsumption: bool = False,
                 abstraction: str | None = None,
                 intern: bool | ZoneInternTable = True,
                 pool: WorkStealingPool | None = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        context = current_exploration_context()
        if context is not None:
            if pool is None:
                pool = context.pool
            if intern is True and context.intern is not None:
                intern = context.intern
        self.core = ZoneGraphExplorer(
            network, extra_max_constants=extra_max_constants,
            trace=trace, max_states=max_states,
            free_clock_when_zero=free_clock_when_zero,
            zone_backend=zone_backend,
            lazy_subsumption=lazy_subsumption,
            abstraction=abstraction)
        self.abstraction = self.core.abstraction
        self.network = network
        self.compiled = self.core.compiled
        # The wave pipeline expands whole discrete-configuration
        # groups per kernel call, so ``auto`` re-resolves here with a
        # batched hint: the expected wave width grows with model size
        # (structural size / 8 is a coarse states-per-wave proxy,
        # clamped to the cost table's measured width grid).  Concrete
        # backend names ignore the hint, and no zones exist yet, so
        # swapping the core's backend classes before the first
        # ``initial_state()`` is safe.
        structural = sum(len(a.locations) + len(a.edges)
                         for a in network.automata)
        backend = resolve_backend(zone_backend, hint=BackendHint(
            n_clocks=self.compiled.n_clocks,
            structural_size=structural,
            wave_width=min(64, max(1, structural // 8))))
        if backend is not self.core.backend:
            self.core.backend = backend
            self.core._dbm = backend.dbm
            self.core._bucket_cls = backend.bucket
        self.backend = backend
        self.jobs = jobs
        self.shared_pool = pool
        if pool is not None:
            # An external pool's width caps useful parallelism
            # regardless of the requested job count.
            self.jobs = max(jobs, 2) if pool.width > 1 else 1
        self.trace_enabled = trace
        self.max_states = max_states
        self.lazy_subsumption = lazy_subsumption
        self.batched = self.backend.name in ("numpy", "native")
        if intern is True:
            self.intern_table: ZoneInternTable | None = \
                global_intern_table()
        elif intern is False:
            self.intern_table = None
        else:
            self.intern_table = intern
        self.parents: dict = {}
        #: Per-key passed buckets of the most recent exploration
        #: (diagnostics/benchmarks only).
        self.passed_store: dict | None = None
        self._trust_narrow = False

    def _compute_trust_narrow(self) -> bool:
        """Stored zones are post-extrapolation, so every finite bound
        is at most 2·ceiling + 1 in the packed encoding — when that
        provably fits int32 the buckets may skip per-batch range
        validation before narrowing.  Resolved at explore() time: LU
        floors raised by query-formula compilation can lift the
        ceiling after construction."""
        if not self.batched:
            return False
        from repro.zones.store import NumpyPassedBucket
        ceiling = max(self.compiled.max_constants, default=0)
        for floors in (self.compiled.lu_lower_floors,
                       self.compiled.lu_upper_floors):
            if floors:
                ceiling = max(ceiling, max(floors.values()))
        return 2 * ceiling + 1 < NumpyPassedBucket.NARROW_LIMIT

    def _new_bucket(self):
        bucket = self.core._bucket_cls()
        if self._trust_narrow:
            bucket.trusted_narrow = True
        return bucket

    # -- API parity with the sequential explorer ------------------------
    def initial_state(self) -> SymbolicState:
        return self.core.initial_state()

    def successors(self, state: SymbolicState):
        return self.core.successors(state)

    def rebuild_trace(self, state: SymbolicState) -> list[str] | None:
        return self.core._rebuild(self.parents, state)

    def iter_states(self) -> Iterator[SymbolicState]:
        """Materialize every reachable symbolic state (full search)."""
        states: list[SymbolicState] = []
        self.explore(visit=states.append)
        return iter(states)

    # -- expansion phases -----------------------------------------------
    def _expand_group_batched(self, expander, key, members, slots):
        """Batched numpy expansion of one discrete-configuration group."""
        import numpy as np

        plans = self.core.plans_for(key)
        if not plans:
            return
        src_stack = np.stack([state.zone._m for _, state in members])
        positions = [pos for pos, _ in members]
        sources = [state for _, state in members]
        for plan in plans:
            work, alive = expander.run_plan(src_stack, plan)
            if plan.error is not None:
                for b in np.flatnonzero(alive):
                    slots[positions[b]].append(
                        _Err(plan.error, plan.label, sources[b]))
                continue
            target_key = (plan.locs, plan.vals)
            for b in np.flatnonzero(alive):
                slots[positions[b]].append(_Cand(
                    target_key, plan.locs, plan.vals, plan.label,
                    None, work[b], sources[b]))

    def _expand_group_scalar(self, key, members, slots):
        """Scalar expansion (reference backend)."""
        for pos, state in members:
            out = slots[pos]
            try:
                for succ, label in self.core.successors(state):
                    out.append(_Cand(succ.key(), succ.locs, succ.vals,
                                     label, succ.zone, None, state))
            except ModelError as exc:
                out.append(_Err(exc, None, state))

    # -- the wave loop ---------------------------------------------------
    def explore(
        self,
        stop: Callable[[SymbolicState], bool] | None = None,
        visit: Callable[[SymbolicState], None] | None = None,
    ) -> ExplorationResult:
        """Sharded breadth-first exploration (sequential-identical)."""
        _count_exploration()
        core = self.core
        trace_on = self.trace_enabled
        lazy = self.lazy_subsumption
        table = self.intern_table
        np = None
        expander = None
        if self.batched:
            import numpy as np  # noqa: F811 - local alias on purpose
            if self.backend.name == "native":
                from repro.zones.dbm_native import NativeBatchExpander
                expander = NativeBatchExpander(
                    self.compiled.n_clocks, self.compiled.max_constants)
            else:
                from repro.zones.batch import BatchExpander
                expander = BatchExpander(self.compiled.n_clocks,
                                         self.compiled.max_constants)

        init = core.initial_state()
        self._trust_narrow = self._compute_trust_narrow()
        if table is not None:
            init = SymbolicState(init.locs, init.vals,
                                 table.intern(init.zone))
        init_entry = _WaitEntry(init)
        bucket = self._new_bucket()
        bucket.insert(init.zone, init_entry)
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
                trace=self.rebuild_trace(init),
                complete=False, transitions=transitions)

        pool = None
        own_pool = False
        try:
            if self.jobs > 1:
                if self.shared_pool is not None:
                    pool = self.shared_pool
                else:
                    pool = WorkStealingPool(self.jobs)
                    own_pool = True

            frontier: list[_WaitEntry] = [init_entry]
            while frontier:
                active = [entry.state for entry in frontier
                          if not lazy or entry.alive]
                frontier = []
                if not active:
                    break
                # Phase 1: expand, sharded by discrete key.
                slots: list[list] = [[] for _ in active]
                groups: dict[tuple, list] = {}
                for pos, state in enumerate(active):
                    groups.setdefault(state.key(), []).append(
                        (pos, state))
                if self.batched:
                    def task(key, members):
                        self._expand_group_batched(
                            expander, key, members, slots)
                else:
                    def task(key, members):
                        self._expand_group_scalar(key, members, slots)
                if pool is not None and len(groups) > 1:
                    pool.run_wave([
                        (lambda k=key, m=members: task(k, m))
                        for key, members in groups.items()])
                else:
                    for key, members in groups.items():
                        task(key, members)

                # Phase 2: deterministic per-shard merge in global order.
                wave: list = []
                per_key: dict[tuple, list[_Cand]] = {}
                for out in slots:
                    for item in out:
                        wave.append(item)
                        if isinstance(item, _Cand):
                            per_key.setdefault(item.key, []).append(item)
                for key, cands in per_key.items():
                    bucket = passed.get(key)
                    if bucket is None:
                        bucket = passed[key] = self._new_bucket()
                    entries = [cand.entry for cand in cands]
                    if self.batched:
                        # The numpy bucket commits on a stacked row
                        # matrix of pipeline rows.
                        rows = np.stack(
                            [cand.row.reshape(-1) for cand in cands])
                        flags = bucket.commit_batch(rows, entries)
                    else:
                        flags = bucket.commit_batch(
                            [cand.zone for cand in cands], entries)
                    for cand, flag in zip(cands, flags):
                        cand.inserted = flag

                # Phase 3: ordered scan — sequential-observable replay.
                for item in wave:
                    if isinstance(item, _Err):
                        if item.label is None:
                            raise item.error
                        raise ModelError(
                            f"{item.error} (while firing {item.label} "
                            f"from "
                            f"{self.compiled.state_description(item.src)})"
                        ) from item.error
                    transitions += 1
                    if not item.inserted:
                        continue
                    stored += 1
                    if stored > self.max_states:
                        raise ExplorationLimit(
                            f"exceeded {self.max_states} symbolic "
                            f"states exploring {self.network.name!r}")
                    zone = item.zone
                    if zone is None:
                        zone = self._materialize(item.row)
                    if table is not None:
                        zone = table.intern(zone)
                    succ = SymbolicState(item.locs, item.vals, zone)
                    item.entry.state = succ
                    if trace_on:
                        parents[succ] = (item.src, item.label)
                    if visit is not None:
                        visit(succ)
                    if stop is not None and stop(succ):
                        return ExplorationResult(
                            visited=stored, stopped=succ,
                            trace=self.rebuild_trace(succ),
                            complete=False, transitions=transitions)
                    frontier.append(item.entry)
        finally:
            if pool is not None and own_pool:
                pool.shutdown()
        return ExplorationResult(visited=stored, complete=True,
                                 transitions=transitions)

    def _materialize(self, row):
        """A fresh backend zone from a batched-pipeline result row."""
        dbm_cls = self.core._dbm
        zone = dbm_cls.__new__(dbm_cls)
        zone.size = self.compiled.n_clocks
        zone._m = row.copy()
        zone._empty = False
        zone._frozen = None
        return zone
