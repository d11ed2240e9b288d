"""Job scheduling for the daemon: requests → executors → row stream.

One :class:`JobScheduler` lives for the server's lifetime and owns
the pieces every request shares:

* the :class:`~repro.service.cache.BoundedVerdictMemo` (injected into
  every verifier, so equivalent jobs across requests and clients
  resolve to one exploration + N cache hits),
* one warm-started :class:`~repro.mc.portfolio.PortfolioVerifier`
  for the thread executor (its pinned intern table is capped — the
  daemon must not leak),
* a :class:`~repro.service.workers.WarmWorkerPool` for the process
  executor,
* a digest-keyed PIM obligation cache.  The per-run obligation cache
  keys by ``id(pim)``, which a daemon cannot trust across requests —
  a freed model's id gets reused — so the scheduler keys by the
  canonical network digest instead (content-addressed, safe forever).

The engine knobs (backend, abstraction, jobs, executor) resolve once,
at construction, through
:meth:`~repro.mc.parallel.EngineConfig.resolve`; every path below
(per-job pipelines, shared obligations, monitor models, process
workers) receives them explicitly, and the ``stats`` op reports them.

Jobs dispatch onto a small thread pool; each finished row is pushed
through the caller's ``emit`` callback (the server bridges that into
the connection's asyncio queue) tagged with its origin —
``explored``, ``memo`` or ``cancelled``.  :meth:`begin_drain` flips
the scheduler into shutdown mode: jobs not yet started return
explicit ``cancelled`` rows instead of running.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Callable

from repro.mc.parallel import EngineConfig
from repro.mc.portfolio import (
    PortfolioJob,
    PortfolioResult,
    PortfolioVerifier,
    _compute_obligation,
    _ProcessConfig,
    _ProcessJobSpec,
    memo_entry_from_row,
    memoized_result,
)
from repro.service.cache import BoundedVerdictMemo
from repro.service.workers import WarmWorkerPool, WorkerDied

__all__ = ["JobScheduler"]

#: Default cap on the warm-start intern table (zones, not bytes) —
#: the bound that turns the cross-request warm start from a leak into
#: a cache.
DEFAULT_WARM_START_MAX_ZONES = 200_000


def _row_origin(row: PortfolioResult) -> str:
    if row.status == "cancelled":
        return "cancelled"
    if row.memo_hit is not None:
        return "memo"
    return "explored"


def _cancelled_row(index: int, job: PortfolioJob) -> PortfolioResult:
    return PortfolioResult(
        index=index, name=job.name, scheme=job.scheme,
        deadline_ms=job.deadline_ms, status="cancelled",
        error="cancelled by server shutdown")


class JobScheduler:
    """Server-lifetime bridge from decoded jobs to the executors."""

    def __init__(self, *,
                 jobs: int | None = None,
                 executor: str | None = None,
                 max_states: int = 2_000_000,
                 backend: str | None = None,
                 abstraction: str | None = None,
                 cache_entries: int = 1024,
                 dispatch_threads: int = 8,
                 warm_start_max_zones: int = DEFAULT_WARM_START_MAX_ZONES,
                 workers: int | None = None,
                 min_idle: int | None = None,
                 recycle_after_executions: int | None = None,
                 job_timeout: float | None = None):
        self.engine = EngineConfig.resolve(
            backend=backend, abstraction=abstraction, jobs=jobs,
            executor=executor)
        self.executor = self.engine.executor
        self.max_states = max_states
        self.memo = BoundedVerdictMemo(max_entries=cache_entries)
        self.verifier = PortfolioVerifier(
            jobs=self.engine.jobs, max_states=max_states,
            backend=self.engine.backend,
            abstraction=self.engine.abstraction,
            reuse=True, warm_start=True,
            warm_start_max_zones=warm_start_max_zones,
            memo=self.memo)
        self.workers: WarmWorkerPool | None = None
        if self.executor == "process":
            self.workers = WarmWorkerPool(
                workers or self.engine.jobs or 2, min_idle=min_idle,
                recycle_after_executions=recycle_after_executions,
                job_timeout=job_timeout)
        self._dispatch = ThreadPoolExecutor(
            max_workers=dispatch_threads,
            thread_name_prefix="repro-dispatch")
        self._draining = threading.Event()
        self._active = 0
        self._idle = threading.Condition()
        self._obligations: dict[tuple, tuple] = {}
        self._obligation_lock = threading.Lock()
        #: Precompiled conformance monitors, keyed by canonical PSM
        #: digest — server-lifetime, like the verdict memo, so every
        #: connection streaming traces for the same scheme shares one
        #: zone-graph precompilation.
        self._monitor_models: dict[str, object] = {}
        self._monitor_lock = threading.Lock()
        #: Request/job counters for the ``stats`` op.
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self.job_errors = 0
        self.traces_monitored = 0

    # -- submission ----------------------------------------------------
    def submit(self, jobs: list[PortfolioJob],
               emit: Callable[[int, dict, str], None],
               done: Callable[[], None]) -> None:
        """Schedule every job; stream rows through ``emit``.

        ``emit(index, row_dict, origin)`` fires once per job from a
        dispatch thread, in completion order (``index`` is the job's
        submission position, so clients can reorder); ``done()``
        fires after the last row.  Neither callback may raise — the server's bridges only
        enqueue.  During a drain, not-yet-started jobs short-circuit
        to ``cancelled`` rows, so a request submitted mid-shutdown
        still gets one frame per job plus its ``done``.
        """
        state = {"remaining": len(jobs)}
        state_lock = threading.Lock()
        with self._idle:
            self._active += len(jobs)
        self.jobs_submitted += len(jobs)

        def finish_one() -> None:
            # done() strictly before the idle notification: a draining
            # server closes connections once wait_idle() returns, so
            # the done frame must already be queued by then.
            with state_lock:
                state["remaining"] -= 1
                last = state["remaining"] == 0
            if last:
                done()
            with self._idle:
                self._active -= 1
                if self._active == 0:
                    self._idle.notify_all()

        def run_one(index: int, job: PortfolioJob) -> None:
            try:
                row = self._execute_job(index, job)
                origin = _row_origin(row)
                if origin == "cancelled":
                    self.jobs_cancelled += 1
                elif row.status != "ok":
                    self.job_errors += 1
                self.jobs_completed += 1
                emit(index, row.row(), origin)
            finally:
                finish_one()

        if not jobs:
            done()
            with self._idle:
                self._idle.notify_all()
            return
        for index, job in enumerate(jobs):
            self._dispatch.submit(run_one, index, job)

    def _execute_job(self, index: int,
                     job: PortfolioJob) -> PortfolioResult:
        if self._draining.is_set():
            return _cancelled_row(index, job)
        try:
            if self.executor == "process":
                return self._execute_process(index, job)
            return self.verifier.run_job(
                job, index=index, obligation=self._obligation(job))
        except Exception as exc:
            # The verifier folds job failures into rows itself; this
            # is the scheduler-level belt-and-braces (obligation or
            # dispatch machinery failures land here).
            return PortfolioResult(
                index=index, name=job.name, scheme=job.scheme,
                deadline_ms=job.deadline_ms, status="error",
                error=f"{type(exc).__name__}: {exc}")

    # -- shared obligations (content-addressed) ------------------------
    def _obligation(self, job: PortfolioJob) -> tuple:
        """The job's ``(pim_result, internal)``, cached by canonical
        PIM digest + requirement + budget."""
        from repro.core.framework import TimingVerificationFramework
        from repro.ta.rename import canonical_network

        max_states = job.max_states or self.max_states
        digest = canonical_network(job.pim.network).digest
        key = (digest, job.input_channel, job.output_channel,
               job.deadline_ms, max_states)
        with self._obligation_lock:
            value = self._obligations.get(key)
        if value is not None:
            return value
        framework = TimingVerificationFramework(
            max_states=max_states, jobs=self.engine.jobs,
            backend=self.engine.backend,
            abstraction=self.engine.abstraction)
        value = _compute_obligation(job, framework)
        with self._obligation_lock:
            # A concurrent duplicate computation is wasteful, never
            # wrong — both produce the identical content-keyed value.
            self._obligations.setdefault(key, value)
        return value

    # -- conformance monitoring ----------------------------------------
    def monitor_model(self, psm):
        """A precompiled monitor for ``psm``, cached for the server's
        lifetime (same idiom as :meth:`_obligation`: content-addressed
        key, duplicate computation wasteful but never wrong)."""
        from repro.monitor import MonitorModel
        from repro.ta.rename import canonical_network

        digest = canonical_network(psm.network).digest
        with self._monitor_lock:
            model = self._monitor_models.get(digest)
        if model is not None:
            return model
        model = MonitorModel(psm, zone_backend=self.engine.backend,
                             abstraction=self.engine.abstraction)
        model.precompile()
        with self._monitor_lock:
            return self._monitor_models.setdefault(digest, model)

    def submit_monitor(self, psm, traces, requirement,
                       emit: Callable[[int, dict, str], None],
                       done: Callable[[], None]) -> None:
        """Check traces against a scheme's PSM; one row per trace.

        The whole batch runs as one dispatch task — batched stepping
        across sessions is the monitor's throughput lever, so the
        traces of a request advance in lockstep rather than one
        thread each.  During a drain every trace comes back as a
        ``cancelled`` row, mirroring :meth:`submit`.
        """
        self.jobs_submitted += len(traces)
        if not traces:
            done()
            with self._idle:
                self._idle.notify_all()
            return
        with self._idle:
            self._active += 1

        def run() -> None:
            try:
                rows = self._monitor_rows(psm, traces, requirement)
                for index, (row, origin) in enumerate(rows):
                    emit(index, row, origin)
            finally:
                # done() strictly before the idle notification (see
                # submit()).
                done()
                with self._idle:
                    self._active -= 1
                    if self._active == 0:
                        self._idle.notify_all()

        self._dispatch.submit(run)

    def _monitor_rows(self, psm, traces, requirement):
        """The rows for one monitor request (never raises)."""
        if self._draining.is_set():
            self.jobs_cancelled += len(traces)
            return [({"status": "cancelled",
                      "error": "cancelled by server shutdown"},
                     "cancelled")] * len(traces)
        try:
            from repro.monitor import BatchMonitor

            model = self.monitor_model(psm)
            runner = BatchMonitor(model, len(traces),
                                  requirement=requirement)
            runner.feed(traces)
            verdicts = runner.verdicts()
        except Exception as exc:
            self.job_errors += len(traces)
            self.jobs_completed += len(traces)
            return [({"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"},
                     "monitor")] * len(traces)
        self.jobs_completed += len(traces)
        self.traces_monitored += len(traces)
        return [({"status": "ok", **verdict}, "monitor")
                for verdict in verdicts]

    # -- process execution over the warm pool --------------------------
    def _execute_process(self, index: int,
                         job: PortfolioJob) -> PortfolioResult:
        """One job on the warm pool, with parent-side memo dedup.

        Mirrors the portfolio's parent-side memo split, but per job:
        find → claim → dispatch → record, with the failure-sentinel
        fallback of :mod:`repro.mc.memo`.  A worker casualty becomes
        an error row and a failed commit, so concurrent waiters on
        the same key immediately fall back to their own dispatch.
        """
        from repro.core.delays import bounds_from_internal
        from repro.core.transform import transform
        from repro.mc.memo import psm_canonical_model

        obligation = self._obligation(job)
        psm = transform(job.pim, job.scheme)
        model = psm_canonical_model(psm)
        _, internal = obligation
        bounds = bounds_from_internal(
            job.scheme, job.input_channel, job.output_channel,
            internal)
        key = self.verifier._memo_key(
            job, psm, model, [job.deadline_ms, bounds.relaxed])
        memo = self.memo
        fallback = False
        while True:
            entry = memo.find(key, model)
            if entry is not None:
                return memoized_result(index, job, entry, obligation)
            if fallback:
                break
            claimed = memo.claim(key)
            if claimed is None:
                break
            claimed.event.wait()
            fallback = claimed.failed
        config = _ProcessConfig(
            engine=EngineConfig(backend=self.engine.backend,
                                abstraction=self.engine.abstraction),
            max_states=self.max_states,
            obligations=(obligation,), reuse=True)
        spec = _ProcessJobSpec(index=index, job=job, obligation=0)
        entry = None
        try:
            if self._draining.is_set():
                return _cancelled_row(index, job)
            try:
                row = self.workers.run(config, spec)
            except WorkerDied as exc:
                return PortfolioResult(
                    index=index, name=job.name, scheme=job.scheme,
                    deadline_ms=job.deadline_ms, status="error",
                    error=f"WorkerDied: {exc}")
            entry = memo_entry_from_row(row, model)
            return row
        finally:
            if fallback:
                if entry is not None:
                    memo.record(key, entry)
            else:
                memo.commit(key, entry)

    # -- lifecycle -----------------------------------------------------
    def begin_drain(self) -> None:
        """Shutdown mode: running jobs finish, queued ones cancel."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is active (queued or running)."""
        with self._idle:
            return self._idle.wait_for(lambda: self._active == 0,
                                       timeout)

    def health_check(self) -> int:
        return self.workers.health_check() if self.workers else 0

    def stats(self) -> dict:
        return {
            "executor": self.executor,
            "engine": asdict(self.engine),
            "cache": self.memo.stats(),
            "warm_start": self.verifier.warm_start_stats(),
            "workers": self.workers.stats() if self.workers else None,
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "cancelled": self.jobs_cancelled,
                "errors": self.job_errors,
                "active": self._active,
            },
            "monitor": {
                "models": len(self._monitor_models),
                "traces": self.traces_monitored,
            },
        }

    def shutdown(self) -> None:
        self.begin_drain()
        self._dispatch.shutdown(wait=True, cancel_futures=True)
        if self.workers is not None:
            self.workers.shutdown()
