"""Cross-model portfolio verification: whole scheme sweeps, one pool.

The paper's workflow verifies one implementation scheme at a time:
transform the PIM for the chosen scheme, check the Section-V
constraints, derive the Lemma-1/2 bounds, re-verify the deadline on
the PSM.  Design-space exploration — "which buffer size / polling
interval / period combination still meets REQ1?" — needs that whole
pipeline over *many* candidate schemes, and the schemes are
independent, so the verifier can be run as a many-tenant service
instead of a single-model checker.

:class:`PortfolioVerifier` schedules N ``(PIM, scheme, queries)`` jobs
concurrently:

* **Two job-level executors.**  The default ``executor="thread"``
  runs scheme pipelines on coordinator threads over one shared
  worker pool (below) — right for the numpy backend, whose batched
  kernels release the GIL.  ``executor="process"`` (CLI
  ``--executor``, a :class:`~repro.api.Session`'s ``executor=``, env
  ``REPRO_EXECUTOR``) partitions whole jobs
  across ``jobs`` worker *processes* via picklable job specs — true
  multi-core for the GIL-bound pure-Python reference backend.  Same
  rows either way.
* **One shared worker pool** (thread executor).  Every job's
  zone-graph sweeps run over a single
  :class:`~repro.mc.parallel.WorkStealingPool` (threaded via
  :func:`~repro.mc.parallel.exploration_context`), so expansion waves
  from different schemes interleave across the same workers instead of
  each job spawning its own pool.  Python-only phases of one job
  overlap with numpy kernel phases of another.
* **One shared zone-intern table.**  Candidate PSMs differ only in
  platform parameters, so their zone graphs overlap heavily; interning
  across jobs dedups that storage (:mod:`repro.zones.intern`).
* **Deterministic job-ordered commit.**  Results are committed into a
  slot per submission index; :meth:`PortfolioVerifier.run` returns
  rows in job order no matter which scheme finishes first.
* **Per-job budgets and fault isolation.**  Each job carries its own
  ``max_states`` budget; a job that exhausts it (or whose scheme is
  invalid for the PIM) becomes a structured failure row, and every
  other job completes normally.
* **Shared PIM obligations.**  Jobs over the same PIM and requirement
  share step 1 (``PIM ⊨ P(Δ)``) and the Lemma-2 internal supremum —
  both are scheme-independent, so the portfolio computes each distinct
  obligation once (the values are exactly what every per-scheme run
  would produce).  Under the process executor the parent computes
  them and ships the values to the workers.

Bit-identity contract: each job runs *exactly* the PSM sweep of
:meth:`repro.core.framework.TimingVerificationFramework.verify` —
one :meth:`~repro.core.framework.TimingVerificationFramework.check_psm`
exploration answering the constraints, both deadlines and the optional
suprema — so every bound, verdict, witness, sup and states/transitions
tally equals the sequential per-scheme run, for every worker count,
backend *and executor* (``tests/test_portfolio.py`` pins the matrix).

Cross-scheme reuse (``reuse=True``) adds a third sharing layer on top
of the pool and the intern table: a :class:`~repro.mc.memo.VerdictMemo`
keyed on the canonical capacity-erased hash of each job's compiled PSM
(:func:`~repro.ta.rename.canonical_network`) plus every
verdict-relevant knob.  Jobs whose canonical keys collide commit the
first job's row instantly — the occupancy certificate in
:mod:`repro.mc.memo` makes the reuse *exact*, so memoized rows keep
the bit-identity contract.  ``prune_dominated=True`` additionally
derives dominated grid points' Theorem-1 verdicts from a verified
neighbor along the Lemma-1-monotone axes (poll, period) instead of
exploring them; derived rows carry ``derived_from`` provenance and
rest on the documented monotonicity assumption (see
``docs/PERFORMANCE.md``), which is why the pass is opt-in.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Sequence, TYPE_CHECKING

from repro.mc.explorer import ExplorationLimit
from repro.mc.memo import VerdictMemo
from repro.mc.parallel import (
    EngineConfig,
    WorkStealingPool,
    exploration_context,
    resolve_jobs,
)
from repro.ta.bounds import resolve_abstraction
from repro.zones.backend import requested_backend
from repro.zones.intern import ZoneInternTable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core cycle
    from repro.core.framework import VerificationReport
    from repro.core.pim import PIM
    from repro.core.scheme import ImplementationScheme
    from repro.mc.observers import BoundedResponseResult, DelayBound

__all__ = [
    "ENV_EXECUTOR",
    "PortfolioJob",
    "PortfolioOutcome",
    "PortfolioResult",
    "PortfolioVerifier",
    "memo_entry_from_row",
    "memoized_result",
    "portfolio_jobs",
    "resolve_executor",
]

#: Environment override for the job-level executor (like ``REPRO_JOBS``
#: for the worker count): ``thread`` or ``process``; read by
#: :meth:`~repro.mc.parallel.EngineConfig.resolve`.
ENV_EXECUTOR = "REPRO_EXECUTOR"

_EXECUTORS = ("thread", "process")


def resolve_executor(executor: str | None = None) -> str:
    """Validate an executor spec (``None`` means ``thread``).

    ``thread`` schedules scheme pipelines on coordinator threads over
    one shared :class:`WorkStealingPool` (zone-level parallelism);
    ``process`` partitions whole jobs across worker *processes* — true
    multi-core for the GIL-bound pure-Python reference backend.
    """
    if executor is None:
        executor = "thread"
    if executor not in _EXECUTORS:
        raise ValueError(
            f"unknown portfolio executor {executor!r} (choose from: "
            f"{', '.join(_EXECUTORS)}; also settable via "
            f"{ENV_EXECUTOR})")
    return executor


@dataclass(frozen=True)
class PortfolioJob:
    """One tenant of the portfolio: a (PIM, scheme, requirement) triple.

    ``max_states`` is this job's private exploration budget (``None``
    inherits the verifier default); exhausting it fails only this job.
    """

    name: str
    pim: "PIM"
    scheme: "ImplementationScheme"
    input_channel: str
    output_channel: str
    deadline_ms: int
    min_interarrival_ms: int | None = None
    measure_suprema: bool = False
    include_progress: bool = False
    max_states: int | None = None


def portfolio_jobs(pim: "PIM",
                   schemes: Sequence["ImplementationScheme"], *,
                   input_channel: str, output_channel: str,
                   deadline_ms: int,
                   **job_kwargs) -> list[PortfolioJob]:
    """One job per scheme, named after the scheme (grid sweeps)."""
    return [
        PortfolioJob(name=scheme.name, pim=pim, scheme=scheme,
                     input_channel=input_channel,
                     output_channel=output_channel,
                     deadline_ms=deadline_ms, **job_kwargs)
        for scheme in schemes
    ]


@dataclass
class PortfolioResult:
    """Structured verification row for one scheme of the portfolio."""

    index: int
    name: str
    scheme: "ImplementationScheme"
    deadline_ms: int
    #: ``"ok"``, ``"budget-exceeded"`` or ``"error"``.
    status: str = "ok"
    error: str | None = None
    #: The full per-scheme report (partial when the job failed).
    report: "VerificationReport | None" = None
    wall_seconds: float = 0.0
    #: Donor job whose memoized verdicts this row reuses (``reuse=True``
    #: and the canonical keys matched); ``None`` = the row's own sweep.
    memo_hit: str | None = None
    #: Dominating neighbor this row's Theorem-1 verdict was derived
    #: from (``prune_dominated=True``); ``None`` = verdict explored.
    derived_from: str | None = None
    #: Occupancy maxima of this job's own complete PSM sweep —
    #: internal evidence the process executor ships back so the parent
    #: can populate its memo (never serialized into :meth:`row`).
    occupancy: "dict[str, int] | None" = None

    # -- flattened row accessors ---------------------------------------
    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def bounds(self):
        return self.report.bounds if self.report else None

    @property
    def relaxed_deadline_ms(self) -> int | None:
        return self.bounds.relaxed if self.bounds else None

    @property
    def constraints_hold(self) -> bool | None:
        if self.report is None or self.report.constraints is None:
            return None
        return self.report.constraints.all_hold

    @property
    def original_holds(self) -> bool | None:
        """``PSM ⊨ P(Δ_mc)`` — pass/fail against the *original* deadline."""
        result = self.report.psm_original_result if self.report else None
        return result.holds if result is not None else None

    @property
    def relaxed_holds(self) -> bool | None:
        """``PSM ⊨ P(Δ'_mc)`` — pass/fail against the Lemma-2 deadline."""
        result = self.report.psm_relaxed_result if self.report else None
        return result.holds if result is not None else None

    @property
    def guarantee(self) -> bool:
        """Theorem 1's conclusion for this scheme."""
        return bool(self.report
                    and self.report.implementation_guarantee)

    @property
    def sups(self) -> "dict[str, DelayBound]":
        return self.report.symbolic if self.report else {}

    @property
    def states(self) -> int | None:
        """States of this job's PSM sweep (steps 3, 5 and 6).

        A memoized row keeps its donor's tallies — the occupancy
        certificate makes the two zone graphs identical, so they *are*
        this scheme's tallies.  A dominance-derived row ran no sweep
        at all, so its tallies are ``None``.
        """
        if self.derived_from is not None:
            return None
        result = self.report.psm_relaxed_result if self.report else None
        return result.visited if result is not None else None

    @property
    def transitions(self) -> int | None:
        if self.derived_from is not None:
            return None
        result = self.report.psm_relaxed_result if self.report else None
        return result.transitions if result is not None else None

    def row(self) -> dict:
        """JSON-ready summary (the benchmark record's shape)."""
        out = {
            "name": self.name,
            "status": self.status,
            "deadline_ms": self.deadline_ms,
            "relaxed_ms": self.relaxed_deadline_ms,
            "constraints_hold": self.constraints_hold,
            "original_holds": self.original_holds,
            "relaxed_holds": self.relaxed_holds,
            "guarantee": self.guarantee,
            "states": self.states,
            "transitions": self.transitions,
            "seconds": round(self.wall_seconds, 4),
        }
        if self.error:
            out["error"] = self.error
        if self.sups:
            out["sups"] = {name: str(bound)
                           for name, bound in self.sups.items()}
        # Provenance keys only when set: memo-off rows stay
        # byte-identical to the pre-reuse record shape.
        if self.memo_hit is not None:
            out["memo_hit"] = self.memo_hit
        if self.derived_from is not None:
            out["derived_from"] = self.derived_from
        return out

    def summary(self) -> str:
        if not self.ok:
            return f"{self.name}: {self.status} ({self.error})"
        verdict = "guaranteed" if self.guarantee else "NOT guaranteed"
        orig = {True: "holds", False: "fails", None: "?"}[
            self.original_holds]
        if self.memo_hit is not None:
            origin = f"memo={self.memo_hit}"
        elif self.derived_from is not None:
            origin = f"derived={self.derived_from}"
        else:
            origin = f"{self.states} states"
        return (f"{self.name}: Δ'={self.relaxed_deadline_ms}ms "
                f"P(Δ') {verdict}, P({self.deadline_ms}) {orig}, "
                f"{origin}, {self.wall_seconds:.2f}s")


@dataclass
class PortfolioOutcome:
    """All rows of one portfolio run, in submission order."""

    results: list[PortfolioResult] = field(default_factory=list)
    #: Resolved worker-pool width (``None`` = sequential engine).
    jobs: int | None = None
    #: Scheme pipelines that ran concurrently.
    concurrency: int = 1
    #: Job-level executor that produced the rows.
    executor: str = "thread"
    wall_seconds: float = 0.0
    #: Whether the cross-scheme verdict memo was consulted.
    reuse: bool = False
    #: Rows that ran their own exploration pipeline.
    explored: int = 0
    #: Rows answered from the verdict memo (``memo_hit`` set).
    memoized: int = 0
    #: Rows derived by dominance pruning (``derived_from`` set).
    pruned: int = 0
    #: Width of the shared zone-level worker pool (0 = none — the
    #: small-grid fallback scheduled whole jobs instead).
    pool_width: int = 0
    #: Expansion waves the shared pool ran — the non-timing proxy for
    #: zone-level scheduling overhead (0 under the fallback).
    pool_waves: int = 0
    #: Zones held by the run's scoped intern table when the run
    #: finished (0 when interning is off or unscoped).  Under
    #: ``warm_start`` this is the pinned table's live size — the
    #: number a daemon watches to see the cap working.
    interned_zones: int = 0
    #: Generation resets the scoped table performed (capacity
    #: evictions under ``warm_start_max_zones``).
    intern_resets: int = 0

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index) -> PortfolioResult:
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)

    @property
    def all_ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def guaranteed(self) -> list[PortfolioResult]:
        """Schemes Theorem 1 accepts (constraints + relaxed deadline)."""
        return [r for r in self.results if r.guarantee]

    def summary(self) -> str:
        lines = [
            f"portfolio: {len(self.results)} schemes, "
            f"{len(self.guaranteed)} guaranteed, "
            f"workers={self.jobs or 'sequential'} "
            f"executor={self.executor} "
            f"concurrency={self.concurrency}, "
            f"{self.wall_seconds:.2f}s",
        ]
        if self.reuse or self.memoized or self.pruned:
            lines.append(
                f"  reuse: {self.explored} explored, "
                f"{self.memoized} memoized, {self.pruned} pruned")
        lines.extend(f"  {result.summary()}" for result in self.results)
        return "\n".join(lines)

    def tally_reuse(self) -> None:
        """Recompute explored/memoized/pruned from the committed rows."""
        rows = [r for r in self.results if r is not None]
        self.memoized = sum(1 for r in rows if r.memo_hit is not None)
        self.pruned = sum(1 for r in rows
                          if r.derived_from is not None)
        self.explored = len(rows) - self.memoized - self.pruned


class _SharedObligation:
    """Once-per-key computation shared across portfolio jobs."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class PortfolioVerifier:
    """Verify a portfolio of implementation schemes concurrently.

    jobs:
        Worker-pool width shared by every sweep (``None`` keeps the
        sequential engine and runs the jobs one after another).  Under
        ``executor="process"`` the same number is the worker-*process*
        count instead.
    executor:
        Job-level execution mode (``None`` means ``thread``):

        ``"thread"``
            Scheme pipelines run on coordinator threads over one
            shared :class:`WorkStealingPool` — parallelism lives at
            the zone level (batched numpy kernels release the GIL),
            so this is the right mode for the numpy backend.
        ``"process"``
            The job list is partitioned across ``jobs`` worker
            processes; each worker receives a picklable job spec
            (PIM + scheme parameters + requirement descriptors, never
            live compiled networks) plus the coordinator's
            backend/abstraction
            (:class:`~repro.mc.parallel.EngineConfig`), compiles its
            own networks and runs the plain *sequential* per-scheme
            pipeline — true multi-core for the GIL-bound pure-Python
            reference backend.  Rows ship back as plain dataclasses
            and commit in deterministic job order; a worker crash or
            budget blow-up yields an error row, never a dead sweep.
            Scheme-independent PIM obligations are computed once in
            the parent and shipped to the workers, so the dedup win
            survives.  ``intern`` is a no-op here
            (each worker's sequential engine never interns, and
            intern tables cannot span processes).
    concurrency:
        How many scheme pipelines run at once (default: the resolved
        worker count).  Coordinator threads are cheap; the pool bounds
        the actual parallel zone work.  Thread executor only —
        process mode's concurrency *is* its worker count.
    max_states:
        Default per-job exploration budget
        (:class:`PortfolioJob.max_states` overrides it per scheme).
    intern:
        Zone-interning policy shared by all jobs: ``True`` (a fresh
        table scoped to each :meth:`run` call, so a long-lived CLI or
        service process sweeping many grids does not accumulate zones
        from prior portfolios), ``False``, or an explicit
        :class:`~repro.zones.intern.ZoneInternTable` used as-is (pass
        :func:`~repro.zones.intern.global_intern_table` for cross-run
        dedup).  Interning is a
        property of the sharded engine, so with ``jobs=None`` (the
        sequential explorer, which never interns) this setting has no
        effect — exactly as everywhere else in the library.
    backend:
        Zone-backend spec for every sweep of every job (``"auto"`` —
        also for ``None`` — or ``"reference"``/``"numpy"``/
        ``"native"``).  Rows are bit-identical on every backend.
    abstraction:
        Extrapolation operator for every sweep of every job
        (``"extra_m"`` — also for ``None`` — or ``"extra_lu"``).  Rows are
        verdict-, bound- and sup-identical either way; ``extra_lu``
        shrinks the per-scheme zone graphs — the blow-up corners of a
        grid most of all.
    reuse:
        Consult the cross-scheme :class:`~repro.mc.memo.VerdictMemo`:
        jobs whose compiled PSMs have the same canonical
        capacity-erased hash (and the same requirement, deadlines,
        budget, backend and abstraction) share one exploration, and
        the occupancy certificate keeps the reuse *exact* — memoized
        rows carry the donor's verdicts, bounds, sups and tallies,
        which provably equal their own, plus ``memo_hit`` provenance.
        Works under both executors (the process parent consults the
        memo before dispatch and populates it from finished rows).
        Off by default so the library default reproduces the
        per-scheme sweep counts exactly; the CLI turns it on.
    prune_dominated:
        Opt-in Lemma-1 dominance planner: grid points that differ
        from a verified neighbor only by *more* slack on the
        property-tested monotone axes (polling interval, period)
        inherit the neighbor's Theorem-1 verdict instead of
        exploring, with ``derived_from`` provenance and their own
        analytic Lemma-1/2 bounds.  Rests on the documented
        monotonicity assumption (``docs/PERFORMANCE.md``); derived
        rows have no states/transitions tallies.
    warm_start:
        Keep the run-scoped intern table alive across :meth:`run`
        calls on this verifier, so a follow-up sweep of neighboring
        schemes starts with the previous grid's zones already
        interned (Tier-3 neighbor warm-start; only meaningful with
        ``intern=True``).

    Small-grid fallback: when the job list is at least as wide as the
    worker pool, :meth:`run` skips the shared zone-level pool entirely
    and runs each job on its own inline engine (``jobs=1``) with
    ``width`` concurrent coordinators.  Job-level parallelism beats
    zone-level waves whenever there are enough jobs to fill the pool —
    the wave barriers and steal traffic of the shared pool were making
    small-scheme grids *slower* at ``jobs=4`` than sequential.  For
    *tiny* models (structural size x deadline horizon under a static
    threshold) the fallback goes one step further and runs fully
    sequentially: whole-job threads only add GIL contention at that
    scale.  An explicit ``concurrency`` overrides the sequential drop.
    Rows are bit-identical in every mode (the worker-count invariance
    the test matrix pins); a grid narrower than the pool runs on the
    shared pool.
    """

    def __init__(self, *, jobs: int | None = None,
                 executor: str | None = None,
                 concurrency: int | None = None,
                 max_states: int = 1_000_000,
                 intern: bool | ZoneInternTable = True,
                 backend: str | None = None,
                 abstraction: str | None = None,
                 reuse: bool = False,
                 prune_dominated: bool = False,
                 warm_start: bool = False,
                 warm_start_max_zones: int | None = None,
                 memo: VerdictMemo | None = None):
        if concurrency is not None and concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {concurrency}")
        if executor is not None:
            resolve_executor(executor)  # validate eagerly
        self.jobs = jobs
        self.executor = executor
        self.concurrency = concurrency
        self.max_states = max_states
        self.intern = intern
        self.backend = requested_backend(backend)
        self.abstraction = resolve_abstraction(abstraction).name
        self.reuse = reuse
        self.prune_dominated = prune_dominated
        self.warm_start = warm_start
        if warm_start_max_zones is not None \
                and warm_start_max_zones < 1:
            raise ValueError(
                f"warm_start_max_zones must be >= 1, "
                f"got {warm_start_max_zones}")
        #: Cap on the pinned warm-start intern table.  Without one the
        #: table grows monotonically across :meth:`run` calls — a
        #: memory leak in a long-running daemon; with a cap the table
        #: generation-resets when full (``intern_resets`` counts).
        self.warm_start_max_zones = warm_start_max_zones
        self._pim_cache: dict[tuple, _SharedObligation] = {}
        self._pim_lock = threading.Lock()
        #: Cross-scheme verdict memo; persists across :meth:`run`
        #: calls (content-addressed, so staleness cannot arise).  An
        #: injected memo (the service's bounded server-lifetime cache)
        #: is shared as-is — several verifiers may point at one.
        self._memo = memo if memo is not None else VerdictMemo()
        self._warm_intern: ZoneInternTable | None = None

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[PortfolioJob], *,
            on_result: Callable[[PortfolioResult], None] | None = None,
            ) -> PortfolioOutcome:
        """Verify every job; rows come back in submission order.

        ``on_result`` (optional) observes rows as they complete — in
        *completion* order, from the coordinator thread that finished
        the job; the returned outcome stays job-ordered either way.
        An exception raised by the callback never disturbs the jobs
        themselves: every row still completes, and the first callback
        error re-raises after the run (identically in the inline and
        threaded schedulers — a dying observer must not orphan
        coordinator threads or leave half-filled outcomes).
        """
        job_list = list(jobs)
        started = time.perf_counter()
        resolved = resolve_jobs(self.jobs)
        if resolve_executor(self.executor) == "process":
            return self._run_process(job_list, resolved, on_result,
                                     started)
        width = resolved or 0
        concurrency = self.concurrency or width or 1
        concurrency = max(1, min(concurrency, len(job_list) or 1))
        # Small-grid fallback: with at least as many jobs as workers
        # (and enough coordinators to use them), whole-job concurrency
        # over inline engines beats zone-level waves — no shared pool,
        # no wave barriers, no steal traffic.  Rows are identical by
        # the worker-count-invariance contract.
        fallback = (width > 1 and concurrency >= width
                    and len(job_list) >= width)
        if fallback:
            pool = None
            engine_jobs: int | None = 1
            # Tiny grids go all the way to sequential: whole-job
            # coordinator threads still contend on the GIL, and for
            # models this small the contention costs more than the
            # concurrency returns.  Explicit ``concurrency`` is
            # always respected.
            if self.concurrency is None and self._tiny_workload(
                    job_list[0]):
                concurrency = 1
        else:
            pool = WorkStealingPool(width) if width > 1 else None
            engine_jobs = resolved
        results: list[PortfolioResult | None] = [None] * len(job_list)
        callback_errors: list[BaseException] = []
        self._pim_cache.clear()
        run_intern = self._run_intern()

        def execute(index: int) -> None:
            result = self._run_one(index, job_list[index], engine_jobs,
                                   pool, run_intern)
            results[index] = result
            if on_result is not None:
                try:
                    on_result(result)
                except Exception as exc:
                    if not callback_errors:
                        callback_errors.append(exc)

        def schedule(indices: list[int]) -> None:
            if not indices:
                return
            if concurrency == 1 or len(indices) == 1:
                for index in indices:
                    execute(index)
            else:
                self._run_threaded(indices,
                                   min(concurrency, len(indices)),
                                   execute)

        deferred: dict[int, list[int]] = {}
        if self.prune_dominated:
            deferred = self._dominance_plan(job_list)
        first_round = [i for i in range(len(job_list))
                       if i not in deferred]
        try:
            schedule(first_round)
            leftovers: list[int] = []
            for index in sorted(deferred):
                donor = next(
                    (results[d] for d in deferred[index]
                     if results[d] is not None and results[d].ok
                     and results[d].guarantee), None)
                if donor is None:
                    # No dominating neighbor earned a guarantee:
                    # monotonicity transfers success only, so the
                    # dominated point must run its own pipeline.
                    leftovers.append(index)
                    continue
                execute_derived = self._derive_result(
                    index, job_list[index], donor, engine_jobs)
                results[index] = execute_derived
                if on_result is not None:
                    try:
                        on_result(execute_derived)
                    except Exception as exc:
                        if not callback_errors:
                            callback_errors.append(exc)
            schedule(leftovers)
        finally:
            if pool is not None:
                pool.shutdown()
        if callback_errors:
            raise callback_errors[0]
        outcome = PortfolioOutcome(
            results=list(results), jobs=resolved,
            concurrency=concurrency, reuse=self.reuse,
            pool_width=pool.width if pool is not None else 0,
            pool_waves=pool.waves if pool is not None else 0,
            wall_seconds=time.perf_counter() - started)
        if isinstance(run_intern, ZoneInternTable):
            stats = run_intern.stats()
            outcome.interned_zones = stats["zones"]
            outcome.intern_resets = stats["resets"]
        outcome.tally_reuse()
        return outcome

    def verify_schemes(self, pim: "PIM",
                       schemes: Sequence["ImplementationScheme"], *,
                       input_channel: str, output_channel: str,
                       deadline_ms: int,
                       on_result: "Callable[[PortfolioResult], None] | None" = None,
                       **job_kwargs) -> PortfolioOutcome:
        """Grid front door: one job per scheme, then :meth:`run`."""
        return self.run(portfolio_jobs(
            pim, schemes, input_channel=input_channel,
            output_channel=output_channel, deadline_ms=deadline_ms,
            **job_kwargs), on_result=on_result)

    def run_job(self, job: PortfolioJob, *, index: int = 0,
                obligation: tuple | None = None) -> PortfolioResult:
        """Verify one job synchronously on the calling thread.

        The per-job front door the service daemon's thread scheduler
        uses: it shares this verifier's verdict memo, so concurrent
        callers on equivalent models dedupe through the claim/commit
        protocol (one explores, the rest wait and hit), and failures
        come back as structured error rows exactly like :meth:`run`'s.
        ``obligation`` optionally supplies the precomputed
        ``(pim_result, internal)`` pair — the daemon caches those by
        canonical PIM digest instead of relying on the per-run
        ``id()``-keyed cache, which a long-lived process cannot trust
        across requests.
        """
        return self._run_one(index, job, resolve_jobs(self.jobs),
                             None, self._run_intern(),
                             obligation=obligation)

    def _run_intern(self) -> "bool | ZoneInternTable":
        """Interning scope for one run: a fresh table per run
        (default) keeps long-lived processes from accumulating zones
        across grids; ``warm_start`` pins one scoped table to this
        verifier so neighboring sweeps reuse each other's interned
        zones (capped by ``warm_start_max_zones``)."""
        if self.intern is not True:
            return self.intern
        if self.warm_start:
            if self._warm_intern is None:
                if self.warm_start_max_zones is not None:
                    self._warm_intern = ZoneInternTable(
                        max_zones=self.warm_start_max_zones)
                else:
                    self._warm_intern = ZoneInternTable()
            return self._warm_intern
        return ZoneInternTable()

    def warm_start_stats(self) -> dict[str, int]:
        """Size + reset counters of the pinned warm-start table
        (zeros when ``warm_start`` is off or nothing ran yet) — the
        daemon exposes these so the leak-turned-cap is observable."""
        table = self._warm_intern
        if table is None:
            return {"zones": 0, "resets": 0}
        stats = table.stats()
        return {"zones": stats["zones"], "resets": stats["resets"]}

    # ------------------------------------------------------------------
    #: Structural-work hint below which the fallback scheduler drops
    #: its coordinator threads too: (locations + edges of the compiled
    #: PSM network) x the deadline horizon in ms.  The tiny test grid
    #: scores ~320, the 16-scheme case study ~40000 — the threshold
    #: sits an order of magnitude from both.
    _SEQUENTIAL_HINT = 2_000

    @classmethod
    def _tiny_workload(cls, job: PortfolioJob) -> bool:
        """Static size-threshold for the sequential fall-back.

        Compiles the first job's PSM (one extra ``transform``, no
        exploration) and scores the grid by structural size scaled by
        the deadline horizon — both knowable up front, so the
        scheduling decision is deterministic and timing-free.  A job
        that fails to compile scores "not tiny": the real pipeline
        will turn the failure into an error row either way.
        """
        from repro.core.transform import transform

        try:
            network = transform(job.pim, job.scheme).network
        except Exception:
            return False
        size = sum(len(automaton.locations) + len(automaton.edges)
                   for automaton in network.automata)
        return size * max(1, job.deadline_ms) < cls._SEQUENTIAL_HINT

    @staticmethod
    def _run_threaded(indices: Sequence[int], concurrency: int,
                      execute: Callable[[int], None]) -> None:
        """Drain the given job indices in order over ``concurrency``
        threads.

        Per-job failures become rows inside ``execute``; anything
        that still escapes it (``SystemExit``/``KeyboardInterrupt``
        or a scheduler bug) is *fatal*: draining stops and the first
        such error re-raises here — exactly what the inline scheduler
        does — rather than dying silently on a coordinator thread and
        returning an outcome with ``None`` holes.
        """
        cursor = {"next": 0}
        lock = threading.Lock()
        fatal: list[BaseException] = []

        def drain() -> None:
            while True:
                with lock:
                    position = cursor["next"]
                    if fatal or position >= len(indices):
                        return
                    cursor["next"] = position + 1
                try:
                    execute(indices[position])
                except BaseException as exc:
                    with lock:
                        if not fatal:
                            fatal.append(exc)
                    return

        # daemon=True: a Ctrl-C that aborts the join below must not
        # leave non-daemon coordinators pinning the interpreter alive
        # mid-exploration (the CLI exits 130 with a partial summary).
        threads = [threading.Thread(target=drain,
                                    name=f"portfolio-job-{i}",
                                    daemon=True)
                   for i in range(concurrency)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if fatal:
            raise fatal[0]

    def _run_one(self, index: int, job: PortfolioJob,
                 engine_jobs: int | None,
                 pool: WorkStealingPool | None,
                 intern: bool | ZoneInternTable,
                 obligation: tuple | None = None,
                 ) -> PortfolioResult:
        from repro.core.framework import (
            TimingVerificationFramework,
            VerificationReport,
        )

        started = time.perf_counter()
        report = VerificationReport(
            input_channel=job.input_channel,
            output_channel=job.output_channel,
            deadline_ms=job.deadline_ms)
        result = PortfolioResult(
            index=index, name=job.name, scheme=job.scheme,
            deadline_ms=job.deadline_ms, report=report)
        framework = TimingVerificationFramework(
            max_states=job.max_states or self.max_states,
            jobs=engine_jobs, backend=self.backend,
            abstraction=self.abstraction)
        try:
            with exploration_context(pool=pool, intern=intern):
                result.memo_hit, result.occupancy = self._verify_job(
                    job, framework, report, obligation=obligation)
        except ExplorationLimit as exc:
            result.status = "budget-exceeded"
            result.error = str(exc)
        except Exception as exc:
            # Fault isolation is the contract: *any* job failure —
            # invalid scheme (SchemeError/ValueError), model error,
            # or an outright bug on a malformed job — must become a
            # structured row, never a dead coordinator thread leaving
            # a None slot behind.
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        result.wall_seconds = time.perf_counter() - started
        return result

    def _verify_job(self, job: PortfolioJob, framework,
                    report: "VerificationReport",
                    obligation: tuple | None = None,
                    ) -> "tuple[str | None, dict[str, int] | None]":
        """The Section-VI pipeline for one scheme (mutates ``report``).

        Mirrors ``TimingVerificationFramework.verify`` step by step;
        the only reordering is that the scheme-independent PIM
        obligations may come from the shared cache — or, in a process
        worker, arrive precomputed from the parent (``obligation``).

        Returns ``(memo_donor, occupancy)``: the donor job's name when
        the row was answered from the verdict memo, and the occupancy
        maxima of this job's own complete sweep when it ran one with
        ``reuse`` enabled (evidence for cross-process memoization).
        """
        from repro.core.delays import bounds_from_internal

        if obligation is not None:
            pim_result, internal = obligation
        else:
            pim_result, internal = self._pim_obligations(job, framework)
        report.pim_result = pim_result
        psm = framework.transform(job.pim, job.scheme)
        report.psm = psm
        report.bounds = bounds_from_internal(
            job.scheme, job.input_channel, job.output_channel,
            internal)
        if not self.reuse:
            self._explore_job(job, framework, report, psm)
            return None, None
        from repro.mc.memo import (
            MemoEntry,
            occupancy_targets,
            psm_canonical_model,
        )

        model = psm_canonical_model(psm)
        key = self._memo_key(
            job, psm, model, [job.deadline_ms, report.bounds.relaxed])
        memo = self._memo
        fallback = False
        while True:
            entry = memo.find(key, model)
            if entry is not None:
                report.constraints = entry.constraints
                report.psm_original_result = entry.original
                report.psm_relaxed_result = entry.relaxed
                if job.measure_suprema:
                    report.symbolic = dict(entry.symbolic)
                return entry.donor, None
            if fallback:
                break  # owner failed: explore without claiming
            claimed = memo.claim(key)
            if claimed is None:
                break  # we own the key: run the real pipeline
            claimed.event.wait()
            # The failed sentinel means no entry is coming for this
            # key; every waiter falls back to exploring concurrently
            # instead of re-claiming (or, worse, waiting forever on
            # an owner that crashed before commit).
            fallback = claimed.failed
        entry = None
        maxima: Mapping[str, int] | None = None
        complete = False
        try:
            track = occupancy_targets(model) if model.erased else ()
            maxima, complete = self._explore_job(
                job, framework, report, psm, track=track)
            entry = MemoEntry(
                donor=job.name, erased=model.erased,
                maxima=maxima if complete else None,
                constraints=report.constraints,
                original=report.psm_original_result,
                relaxed=report.psm_relaxed_result,
                symbolic=dict(report.symbolic or {}))
        finally:
            if fallback:
                # Not the owner — nothing to release; still publish a
                # successful result for later jobs.
                if entry is not None:
                    memo.record(key, entry)
            else:
                # A failed pipeline commits None, which marks the
                # in-flight record failed and sends waiters into the
                # fallback path above.
                memo.commit(key, entry)
        return None, (dict(maxima) if complete and maxima else None)

    def _explore_job(self, job: PortfolioJob, framework, report,
                     psm, track: Sequence[str] = (),
                     ) -> "tuple[Mapping[str, int] | None, bool]":
        """Steps 3 + 5/6 (+ optional sups): the one PSM sweep.

        With ``track`` names the sweep additionally records occupancy
        maxima — a read-only observation
        (:func:`~repro.mc.queries.check_many`'s ``track_maxima``), so
        verdicts, traces and tallies are untouched.  Returns
        ``(maxima, complete)``.
        """
        sweep = framework.check_psm(
            report, psm, min_interarrival_ms=job.min_interarrival_ms,
            measure_suprema=job.measure_suprema,
            include_progress=job.include_progress, track_maxima=track)
        return sweep.maxima, sweep.complete

    def _memo_key(self, job: PortfolioJob, psm, model,
                  deadlines: list[int]) -> tuple:
        """Everything besides the canonical network that can change a
        verdict, a bound, a sup or a tally.

        Channel/variable names enter in canonical form so two
        renamed-but-isomorphic jobs still share a key.  The worker
        count is deliberately absent — tallies are worker-count
        invariant (the pinned contract).
        """
        def cid(name: str):
            try:
                return model.channel_id(name)
            except KeyError:
                return ("raw", name)

        def vid(name: str):
            # A flag the compiled network never reads or writes has no
            # canonical id; keying on its raw name is safe (it cannot
            # affect any verdict) if slightly conservative.
            try:
                return model.variable_id(name)
            except KeyError:
                return ("raw", name)

        from repro.core.delays import detection_bound

        detection = None
        if job.min_interarrival_ms is not None:
            # Constraint 1's analytic half compares each input's
            # worst-case (fault-inflated) detection against the
            # inter-arrival time.
            detection = tuple(sorted(
                (cid(channel), detection_bound(job.scheme, channel))
                for channel in job.pim.input_channels()))
        return (
            job.scheme.faults.signature(),
            model.digest,
            cid(job.input_channel), cid(job.output_channel),
            cid(psm.io_name(job.input_channel)),
            cid(psm.io_name(job.output_channel)),
            tuple(deadlines),
            job.min_interarrival_ms, detection,
            job.measure_suprema, job.include_progress,
            job.max_states or self.max_states,
            self.backend, self.abstraction,
            tuple(sorted(vid(flag) for flag in psm.miss_flags())),
            tuple(sorted(vid(v.overflow)
                         for v in psm.input_vars.values())),
            tuple(sorted(vid(v.overflow)
                         for v in psm.output_vars.values())),
            vid(psm.code_drop_flag),
        )

    # ------------------------------------------------------------------
    # Lemma-1 dominance pruning (Tier 2)
    # ------------------------------------------------------------------
    def _dominance_plan(self, job_list: list[PortfolioJob],
                        ) -> dict[int, list[int]]:
        """Map each dominated job index to its candidate donors.

        Jobs group by everything *except* the Lemma-1-monotone slack
        axes (polling interval, period); within a group a point is
        deferred when some kept point has componentwise ≥ slack —
        larger boundary delays, a tighter relaxed deadline and slower
        sampling, i.e. the strictly harder configuration.  Kept points
        explore; deferred points later inherit a kept donor's verdict
        if (and only if) that donor earned the Theorem-1 guarantee.
        """
        groups: dict[tuple, list[tuple[int, tuple]]] = {}
        for index, job in enumerate(job_list):
            signature = _dominance_signature(
                job, job.max_states or self.max_states)
            if signature is None:
                continue
            key, slack = signature
            groups.setdefault(key, []).append((index, slack))
        deferred: dict[int, list[int]] = {}
        for members in groups.values():
            # Harder points first: any dominator of a point has a
            # componentwise-≥ slack vector, hence a ≥ sum, hence
            # appears earlier (equal sums dominate only when equal).
            members.sort(key=lambda item: (-sum(item[1]), item[0]))
            kept: list[tuple[int, tuple]] = []
            for index, slack in members:
                donors = [kept_index for kept_index, kept_slack in kept
                          if all(a >= b for a, b
                                 in zip(kept_slack, slack))]
                if donors:
                    deferred[index] = donors
                else:
                    kept.append((index, slack))
        return deferred

    def _derive_result(self, index: int, job: PortfolioJob,
                       donor: PortfolioResult,
                       engine_jobs: int | None,
                       obligation: tuple | None = None,
                       ) -> PortfolioResult:
        """Tier-2 row: Theorem-1 verdict inherited from a dominating
        donor, no exploration.

        The row keeps its *own* analytic Lemma-1/2 bounds (exact per
        scheme — the relaxed deadline column stays truthful); the
        donor contributes the constraint and relaxed-deadline verdicts
        under the documented monotonicity assumption.  The shared
        verdict objects may mention the donor's parameters in their
        witness text; ``derived_from`` records the provenance and the
        states/transitions tallies are withheld.
        """
        from repro.core.delays import bounds_from_internal
        from repro.core.framework import (
            TimingVerificationFramework,
            VerificationReport,
        )

        started = time.perf_counter()
        report = VerificationReport(
            input_channel=job.input_channel,
            output_channel=job.output_channel,
            deadline_ms=job.deadline_ms)
        result = PortfolioResult(
            index=index, name=job.name, scheme=job.scheme,
            deadline_ms=job.deadline_ms, report=report,
            derived_from=donor.name)
        try:
            if obligation is not None:
                pim_result, internal = obligation
            else:
                framework = TimingVerificationFramework(
                    max_states=job.max_states or self.max_states,
                    jobs=engine_jobs, backend=self.backend,
                    abstraction=self.abstraction)
                pim_result, internal = self._pim_obligations(
                    job, framework)
            report.pim_result = pim_result
            report.bounds = bounds_from_internal(
                job.scheme, job.input_channel, job.output_channel,
                internal)
            report.constraints = donor.report.constraints
            report.psm_relaxed_result = donor.report.psm_relaxed_result
        except ExplorationLimit as exc:
            result.status = "budget-exceeded"
            result.error = str(exc)
            result.derived_from = None
        except Exception as exc:
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
            result.derived_from = None
        result.wall_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Process executor
    # ------------------------------------------------------------------
    def _run_process(self, job_list: list[PortfolioJob],
                     resolved: int | None,
                     on_result: Callable[[PortfolioResult], None] | None,
                     started: float) -> PortfolioOutcome:
        """Partition the job list across worker processes.

        Every job becomes a picklable :class:`_ProcessJobSpec`; rows
        ship back as plain :class:`PortfolioResult` dataclasses and
        commit into their submission slot, so the outcome is
        job-ordered no matter which worker finishes first.
        ``on_result`` streams rows in completion order from the
        parent, exactly like the thread scheduler.  Fault isolation
        covers the whole lifecycle: a job that cannot be shipped
        (pickling), a worker that dies (``BrokenProcessPool``), and a
        budget blow-up inside a worker each produce a structured
        error row — never a dead sweep, never a ``None`` slot.
        """
        results: list[PortfolioResult | None] = [None] * len(job_list)
        callback_errors: list[BaseException] = []
        self._pim_cache.clear()

        def commit(result: PortfolioResult) -> None:
            results[result.index] = result
            if on_result is not None:
                try:
                    on_result(result)
                except Exception as exc:
                    if not callback_errors:
                        callback_errors.append(exc)

        obligations, obligation_of = \
            self._parent_obligations(job_list)
        deferred = (self._dominance_plan(job_list)
                    if self.prune_dominated else {})
        width = min(resolved or 1, len(job_list) or 1)
        pending: list[_ProcessJobSpec] = []
        for index, job in enumerate(job_list):
            slot = obligation_of[index]
            if slot is not None and obligations[slot][0] != "ok":
                # The shared obligation itself failed: every sharer
                # gets the same structured failure row — same status
                # classification (budget-exceeded vs error) as the
                # thread scheduler — and never reaches a worker.
                commit(PortfolioResult(
                    index=index, name=job.name, scheme=job.scheme,
                    deadline_ms=job.deadline_ms,
                    status=obligations[slot][0],
                    error=obligations[slot][1]))
                deferred.pop(index, None)
                continue
            pending.append(_ProcessJobSpec(index=index, job=job,
                                           obligation=slot))
        spec_of = {spec.index: spec for spec in pending}
        inline_verifier = (self._worker_verifier()
                           if width <= 1 else None)

        def run_specs(specs: list[_ProcessJobSpec]) -> None:
            if not specs:
                return
            if inline_verifier is not None:
                # No spare processes to partition onto: run the same
                # per-job pipeline inline (identical rows, no fork);
                # the single verifier's memo spans the whole batch.
                values = [value for _, value in obligations]
                for spec in specs:
                    commit(inline_verifier._run_one(
                        spec.index, spec.job, None, None, False,
                        obligation=(values[spec.obligation]
                                    if spec.obligation is not None
                                    else None)))
            else:
                self._run_process_pool(specs, obligations, width,
                                       commit, reuse=self.reuse)

        run_specs([spec for spec in pending
                   if spec.index not in deferred])
        leftovers: list[_ProcessJobSpec] = []
        for index in sorted(deferred):
            spec = spec_of.get(index)
            if spec is None:
                continue
            donor = next(
                (results[d] for d in deferred[index]
                 if results[d] is not None and results[d].ok
                 and results[d].guarantee), None)
            if donor is None:
                leftovers.append(spec)
                continue
            obligation = (obligations[spec.obligation][1]
                          if spec.obligation is not None else None)
            commit(self._derive_result(index, spec.job, donor, None,
                                       obligation=obligation))
        run_specs(leftovers)
        if callback_errors:
            raise callback_errors[0]
        outcome = PortfolioOutcome(
            results=list(results), jobs=resolved,
            concurrency=width, executor="process",
            reuse=self.reuse,
            wall_seconds=time.perf_counter() - started)
        outcome.tally_reuse()
        return outcome

    def _worker_verifier(self) -> "PortfolioVerifier":
        """The verifier a worker (or the inline fallback) runs jobs
        on: sequential engine, PIM obligations taken from the parent
        — each row is exactly the per-scheme sequential ``verify``.
        ``reuse`` passes through: the inline fallback's single
        verifier shares its memo across the batch; a worker process
        uses it only to track the occupancy evidence the parent
        memoizes from."""
        return PortfolioVerifier(
            jobs=None, executor="thread", max_states=self.max_states,
            intern=False, backend=self.backend,
            abstraction=self.abstraction, reuse=self.reuse)

    def _run_process_pool(self, pending: list["_ProcessJobSpec"],
                          obligations: list[tuple], width: int,
                          commit: Callable[[PortfolioResult], None],
                          reuse: bool = False) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Parent-side memo plan: one leader per canonical key is
        # dispatched; followers resolve against the parent memo once
        # their leader's row (with its occupancy evidence) lands.
        if reuse:
            leaders, followers, models = self._memo_split(
                pending, obligations)
        else:
            leaders, followers, models = list(pending), [], {}
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        config = _ProcessConfig(
            engine=EngineConfig(backend=self.backend,
                                abstraction=self.abstraction),
            max_states=self.max_states,
            obligations=tuple(value for _, value in obligations),
            reuse=reuse)
        executor = ProcessPoolExecutor(max_workers=width,
                                       mp_context=ctx)

        def run_round(specs: list[_ProcessJobSpec]) -> None:
            futures = {executor.submit(_process_worker_run, config,
                                       spec): spec
                       for spec in specs}
            for future in as_completed(futures):
                spec = futures[future]
                try:
                    row = future.result()
                except Exception as exc:
                    # Submission pickling failures land here too (the
                    # executor sets them on the affected future); a
                    # dead worker breaks the pool and every pending
                    # future raises — each becomes its own error row.
                    # Only Exception: BrokenProcessPool and pickling
                    # errors are Exceptions, while a parent-side
                    # KeyboardInterrupt/SystemExit must abort the
                    # sweep, not become a fake worker failure.
                    row = PortfolioResult(
                        index=spec.index, name=spec.job.name,
                        scheme=spec.job.scheme,
                        deadline_ms=spec.job.deadline_ms,
                        status="error",
                        error=f"worker failed: "
                              f"{type(exc).__name__}: {exc}")
                if (reuse and row.status == "ok"
                        and spec.index in models):
                    self._record_worker_entry(spec, row, models)
                # Outside the except: a KeyboardInterrupt/SystemExit
                # raised by the on_result callback must stay fatal
                # (as in the thread scheduler), not masquerade as a
                # worker failure.
                commit(row)

        try:
            run_round(leaders)
            # A leader's entry need not cover every same-key follower
            # (its occupancy may have reached its own smaller
            # capacity), so resolution iterates: each round commits
            # every follower the memo now covers, then explores one
            # representative per key among the rest — every remaining
            # key shrinks by one member per round, so this terminates.
            pending_followers = followers
            while pending_followers:
                unresolved: list[_ProcessJobSpec] = []
                for spec in pending_followers:
                    key, model = models[spec.index]
                    entry = self._memo.find(key, model)
                    if entry is not None:
                        commit(self._memoized_result(spec, entry,
                                                     obligations))
                    else:
                        unresolved.append(spec)
                if not unresolved:
                    break
                representatives: list[_ProcessJobSpec] = []
                waiters: list[_ProcessJobSpec] = []
                seen_keys: set = set()
                for spec in unresolved:
                    key, _ = models[spec.index]
                    if key in seen_keys:
                        waiters.append(spec)
                    else:
                        seen_keys.add(key)
                        representatives.append(spec)
                run_round(representatives)
                pending_followers = waiters
        finally:
            # cancel_futures: on an abort (KeyboardInterrupt, daemon
            # shutdown) queued-but-unstarted jobs are dropped instead
            # of run to completion — shutdown then only waits for the
            # rounds already on workers.
            executor.shutdown(wait=True, cancel_futures=True)

    def _memo_split(self, pending: list["_ProcessJobSpec"],
                    obligations: list[tuple]):
        """Group specs by canonical memo key in the parent.

        Returns ``(leaders, followers, models)`` where ``models`` maps
        a spec index to its ``(key, model)``.  A job whose PSM cannot
        be compiled (or keyed) in the parent dispatches normally so
        the worker produces the properly classified failure row.
        """
        from repro.core.delays import bounds_from_internal
        from repro.core.transform import transform
        from repro.mc.memo import psm_canonical_model

        leaders: list[_ProcessJobSpec] = []
        followers: list[_ProcessJobSpec] = []
        models: dict[int, tuple] = {}
        seen: set[tuple] = set()
        for spec in pending:
            job = spec.job
            if spec.obligation is None:
                leaders.append(spec)
                continue
            try:
                psm = transform(job.pim, job.scheme)
                model = psm_canonical_model(psm)
                _, internal = obligations[spec.obligation][1]
                bounds = bounds_from_internal(
                    job.scheme, job.input_channel, job.output_channel,
                    internal)
                key = self._memo_key(
                    job, psm, model, [job.deadline_ms, bounds.relaxed])
            except Exception:
                leaders.append(spec)
                continue
            models[spec.index] = (key, model)
            if key in seen:
                followers.append(spec)
            else:
                seen.add(key)
                leaders.append(spec)
        return leaders, followers, models

    def _record_worker_entry(self, spec: "_ProcessJobSpec",
                             row: PortfolioResult, models) -> None:
        """Populate the parent memo from a finished worker row."""
        key, model = models[spec.index]
        entry = memo_entry_from_row(row, model)
        if entry is not None:
            self._memo.record(key, entry)

    def _memoized_result(self, spec: "_ProcessJobSpec", entry,
                         obligations: list[tuple]) -> PortfolioResult:
        """Parent-built row for a follower answered from the memo."""
        return memoized_result(spec.index, spec.job, entry,
                               obligations[spec.obligation][1])

    def _parent_obligations(self, job_list: list[PortfolioJob]):
        """Step 1 + the Lemma-2 internal sup, once per distinct key,
        computed *in the parent* for shipping to process workers.

        Returns ``(values, obligation_of)`` where ``values[i]`` is
        ``("ok", (pim_result, internal))`` or ``("error", message)``
        and ``obligation_of[j]`` indexes the value job ``j`` shares.
        """
        from repro.core.framework import TimingVerificationFramework

        values: list[tuple] = []
        index_of: dict[tuple, int] = {}
        obligation_of: list[int | None] = []
        for job in job_list:
            max_states = job.max_states or self.max_states
            key = (id(job.pim), job.input_channel, job.output_channel,
                   job.deadline_ms, max_states)
            slot = index_of.get(key)
            if slot is None:
                framework = TimingVerificationFramework(
                    max_states=max_states, jobs=None,
                    backend=self.backend, abstraction=self.abstraction)
                try:
                    value = ("ok", _compute_obligation(job, framework))
                except ExplorationLimit as exc:
                    # Same classification the per-job handler gives a
                    # blown budget, so thread and process rows agree.
                    value = ("budget-exceeded", str(exc))
                except Exception as exc:
                    value = ("error", f"{type(exc).__name__}: {exc}")
                slot = index_of[key] = len(values)
                values.append(value)
            obligation_of.append(slot)
        return values, obligation_of

    # ------------------------------------------------------------------
    def _pim_obligations(self, job: PortfolioJob, framework):
        """Step 1 + the Lemma-2 internal sup, deduped across jobs."""
        key = (id(job.pim), job.input_channel, job.output_channel,
               job.deadline_ms, framework.max_states)
        with self._pim_lock:
            entry = self._pim_cache.get(key)
            owner = entry is None
            if owner:
                entry = self._pim_cache[key] = _SharedObligation()
        if owner:
            try:
                entry.value = _compute_obligation(job, framework)
            except BaseException as exc:
                entry.error = exc
                raise
            finally:
                entry.event.set()
            return entry.value
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        return entry.value


def memo_entry_from_row(row: PortfolioResult,
                        model) -> "MemoEntry | None":
    """A :class:`~repro.mc.memo.MemoEntry` built from a finished row
    (``None`` when the row carries nothing memoizable — it errored
    before the relaxed sweep committed).

    ``model`` is the row's own canonical capacity-erased model; the
    process executor's parent and the service daemon both use this to
    populate a memo from rows that were produced elsewhere.
    """
    from repro.mc.memo import MemoEntry

    report = row.report
    if report is None or report.psm_relaxed_result is None:
        return None
    return MemoEntry(
        donor=row.name, erased=model.erased,
        maxima=row.occupancy,
        constraints=report.constraints,
        original=report.psm_original_result,
        relaxed=report.psm_relaxed_result,
        symbolic=dict(report.symbolic or {}))


def memoized_result(index: int, job: PortfolioJob, entry,
                    obligation: tuple) -> PortfolioResult:
    """A complete row answered from a memo entry, no exploration.

    ``obligation`` is the job's ``(pim_result, internal)`` pair (the
    scheme-independent half of the pipeline).  Verdicts, bounds and
    tallies are the donor's own — exact by the occupancy-certificate
    bisimulation — with ``memo_hit`` provenance set.
    """
    from repro.core.delays import bounds_from_internal
    from repro.core.framework import VerificationReport

    started = time.perf_counter()
    report = VerificationReport(
        input_channel=job.input_channel,
        output_channel=job.output_channel,
        deadline_ms=job.deadline_ms)
    result = PortfolioResult(
        index=index, name=job.name, scheme=job.scheme,
        deadline_ms=job.deadline_ms, report=report,
        memo_hit=entry.donor)
    pim_result, internal = obligation
    report.pim_result = pim_result
    report.bounds = bounds_from_internal(
        job.scheme, job.input_channel, job.output_channel,
        internal)
    report.constraints = entry.constraints
    report.psm_original_result = entry.original
    report.psm_relaxed_result = entry.relaxed
    if job.measure_suprema:
        report.symbolic = dict(entry.symbolic)
    result.wall_seconds = time.perf_counter() - started
    return result


def _compute_obligation(job: PortfolioJob, framework) -> tuple:
    """One (PIM, requirement) obligation: step 1 + the internal sup."""
    from repro.core.delays import internal_delay

    pim_result = framework.verify_pim(
        job.pim, job.input_channel, job.output_channel,
        job.deadline_ms)
    internal = internal_delay(
        job.pim, job.input_channel, job.output_channel,
        max_states=framework.max_states, jobs=framework.jobs,
        zone_backend=framework.backend,
        abstraction=framework.abstraction)
    return pim_result, internal


# ----------------------------------------------------------------------
# Lemma-1 dominance signatures
# ----------------------------------------------------------------------
def _freeze(value):
    """Hashable structural key for spec dataclasses and mappings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((spec_field.name,
                      _freeze(getattr(value, spec_field.name)))
                     for spec_field in dataclasses.fields(value))
    if isinstance(value, Mapping):
        return tuple(sorted((key, _freeze(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    return value


def _dominance_signature(job: PortfolioJob, max_states: int,
                         ) -> tuple[tuple, tuple[int, ...]] | None:
    """``(group_key, slack_vector)`` for Lemma-1 dominance, or ``None``.

    The slack vector collects the property-tested monotone axes —
    each polled input's ``polling_interval`` (sorted by channel) and
    the invocation ``period`` — and the group key is everything else
    about the job: PIM identity, requirement, budget, and the scheme
    with the slack axes masked out.  A polled and an interrupt-driven
    input never share a group (``None`` vs the mask differ), so slack
    vectors within a group always align.  Jobs measuring suprema are
    never grouped: sup values are scheme-exact and cannot be derived.
    """
    if job.measure_suprema:
        return None
    scheme = job.scheme
    slack: list[int] = []
    inputs_key = []
    for channel in sorted(scheme.inputs):
        spec = scheme.inputs[channel]
        entry = []
        for spec_field in dataclasses.fields(spec):
            value = getattr(spec, spec_field.name)
            if (spec_field.name == "polling_interval"
                    and value is not None):
                slack.append(value)
                value = "*"
            entry.append((spec_field.name, _freeze(value)))
        inputs_key.append((channel, tuple(entry)))
    invocation = scheme.invocation
    invocation_key = []
    for spec_field in dataclasses.fields(invocation):
        value = getattr(invocation, spec_field.name)
        if spec_field.name == "period" and value is not None:
            slack.append(value)
            value = "*"
        invocation_key.append((spec_field.name, _freeze(value)))
    key = (
        id(job.pim), job.input_channel, job.output_channel,
        job.deadline_ms, job.min_interarrival_ms,
        job.include_progress, max_states,
        tuple(inputs_key),
        _freeze(scheme.outputs), _freeze(scheme.io_inputs),
        _freeze(scheme.io_outputs), tuple(invocation_key),
        _freeze(scheme.faults))
    return key, tuple(slack)


# ----------------------------------------------------------------------
# Process-worker side (module level: picklable by reference)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ProcessConfig:
    """Everything a worker process needs, shipped with each job.

    ``engine`` carries the coordinator's resolved backend/abstraction
    (the inner engine stays sequential, ``jobs=None``);
    ``obligations`` carries the parent-computed shared PIM obligation
    values the job specs index into.
    """

    engine: EngineConfig
    max_states: int
    obligations: tuple = ()
    #: Track occupancy evidence in the workers so the parent can
    #: memoize their rows (the worker-local memo itself is inert —
    #: each worker builds a fresh verifier per job).
    reuse: bool = False


@dataclass(frozen=True)
class _ProcessJobSpec:
    """One job's picklable shipping form: the :class:`PortfolioJob`
    (PIM + scheme parameters + requirement descriptors — plain
    dataclasses, never compiled networks or zones) plus the index of
    its shared-obligation value, if any."""

    index: int
    job: PortfolioJob
    obligation: int | None = None


def _process_worker_run(config: _ProcessConfig,
                        spec: _ProcessJobSpec) -> PortfolioResult:
    """Run one job in this worker; always returns a structured row."""
    verifier = PortfolioVerifier(
        jobs=None, executor="thread", max_states=config.max_states,
        intern=False, backend=config.engine.backend,
        abstraction=config.engine.abstraction, reuse=config.reuse)
    obligation = (config.obligations[spec.obligation]
                  if spec.obligation is not None else None)
    return verifier._run_one(spec.index, spec.job, None, None, False,
                             obligation=obligation)
