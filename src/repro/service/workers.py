"""Warm worker pool: pre-forked processes that outlive their jobs.

The portfolio's process executor builds a fresh
``ProcessPoolExecutor`` per run — right for a batch tool, wrong for a
daemon, where fork + import cost would land on every request.
:class:`WarmWorkerPool` keeps workers alive across requests:

* **Pre-forked**: ``min_idle`` workers are spawned at construction
  (and re-spawned after retirements), so the first request after an
  idle stretch finds a warm process.
* **Recycled**: a worker retires after ``recycle_after_executions``
  jobs — the bound on leaked memory (interned zones, caches) any
  long-lived forked process accumulates.
* **Health-checked**: :meth:`health_check` pings idle workers and
  replaces the dead or wedged instead of letting them poison the
  pool; a worker that dies or stalls *mid-job* surfaces as
  :class:`WorkerDied` to exactly that job's caller (who turns it into
  a structured error row) and is replaced.

Workers run the portfolio's own job machinery
(:func:`repro.mc.portfolio._process_worker_run`), so rows coming out
of the pool are bit-identical to local runs.  Transport is one
duplex :func:`multiprocessing.Pipe` per worker; each job ships its
:class:`~repro.mc.portfolio._ProcessConfig` alongside the spec, so
one pool serves requests with different backends or abstractions.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Optional

from repro.mc.portfolio import PortfolioResult, _process_worker_run

__all__ = ["WarmWorker", "WarmWorkerPool", "WorkerDied"]


class WorkerDied(RuntimeError):
    """A worker process died or stopped responding mid-request.

    The job it carried is lost (the caller reports a structured error
    row); the pool replaces the worker, so one casualty never wedges
    the daemon.
    """


def _worker_main(conn) -> None:
    """Child-process loop: serve ``ping``/``run`` until EOF/``exit``.

    Every job carries its own engine config, so a single long-lived
    worker can serve requests with different backend/abstraction
    settings back to back.
    """
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if op == "ping":
            conn.send(("pong", os.getpid()))
        elif op == "run":
            config, spec = payload
            try:
                row = _process_worker_run(config, spec)
                conn.send(("row", row))
            except KeyboardInterrupt:
                return
            except BaseException as exc:
                # _process_worker_run already folds job failures into
                # error rows; reaching here means the machinery itself
                # (or result pickling) broke — report and stay alive.
                try:
                    conn.send(("failed",
                               f"{type(exc).__name__}: {exc}"))
                except Exception:
                    return
        elif op == "exit":
            return


class WarmWorker:
    """One pre-forked worker process plus its parent-side pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child,),
                                   daemon=True)
        self.process.start()
        child.close()
        #: Jobs this worker has completed (drives recycling).
        self.executions = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def request(self, message, timeout: float | None = None):
        """One round-trip; :class:`WorkerDied` on death or timeout."""
        try:
            self.conn.send(message)
            while not self.conn.poll(timeout):
                if timeout is not None:
                    raise WorkerDied(
                        f"worker {self.pid} unresponsive after "
                        f"{timeout}s")
            return self.conn.recv()
        except WorkerDied:
            raise
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerDied(
                f"worker {self.pid} died: {type(exc).__name__}"
            ) from exc

    def ping(self, timeout: float | None = 5.0) -> bool:
        try:
            op, _ = self.request(("ping", None), timeout)
        except WorkerDied:
            return False
        return op == "pong"

    def close(self, join_timeout: float = 2.0) -> None:
        """Retire the worker: polite exit, then escalate."""
        try:
            self.conn.send(("exit", None))
        except (OSError, BrokenPipeError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - stubborn
            self.process.kill()
            self.process.join(timeout=join_timeout)


class WarmWorkerPool:
    """A bounded pool of :class:`WarmWorker` with warm spares.

    ``size`` caps concurrent workers; ``min_idle`` (default: ``size``,
    i.e. fully pre-forked) is the number of warm spares maintained
    while below the cap; ``recycle_after_executions`` retires a
    worker after that many jobs; ``job_timeout`` bounds one job's
    wall time in a worker — exceeding it is treated as a wedged
    worker (killed, replaced, :class:`WorkerDied` to the caller).
    """

    def __init__(self, size: int, *,
                 min_idle: int | None = None,
                 recycle_after_executions: int | None = None,
                 job_timeout: float | None = None,
                 start_method: str | None = None):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if min_idle is None:
            min_idle = size
        if not 0 <= min_idle <= size:
            raise ValueError(
                f"min_idle must be in [0, size], got {min_idle}")
        if recycle_after_executions is not None \
                and recycle_after_executions < 1:
            raise ValueError("recycle_after_executions must be >= 1, "
                             f"got {recycle_after_executions}")
        if start_method is None:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX
                self._ctx = multiprocessing.get_context()
        else:
            self._ctx = multiprocessing.get_context(start_method)
        self.size = size
        self.min_idle = min_idle
        self.recycle_after_executions = recycle_after_executions
        self.job_timeout = job_timeout
        self._cv = threading.Condition()
        self._idle: list[WarmWorker] = []
        self._busy: set[WarmWorker] = set()
        self._closed = False
        #: Lifetime counters (exposed via :meth:`stats`).
        self.spawned = 0
        self.recycled = 0
        self.executions = 0
        with self._cv:
            self._replenish_locked()

    # -- internal ------------------------------------------------------
    def _spawn_locked(self) -> WarmWorker:
        worker = WarmWorker(self._ctx)
        self.spawned += 1
        return worker

    def _replenish_locked(self) -> None:
        """Keep ``min_idle`` warm spares while below the size cap."""
        while (not self._closed
               and len(self._idle) < self.min_idle
               and len(self._idle) + len(self._busy) < self.size):
            self._idle.append(self._spawn_locked())

    def _retire(self, worker: WarmWorker) -> None:
        self.recycled += 1
        worker.close()

    # -- pool API ------------------------------------------------------
    def acquire(self, timeout: float | None = None) -> WarmWorker:
        """Check out a live worker (spawning up to ``size``)."""
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is shut down")
                while self._idle:
                    worker = self._idle.pop()
                    if worker.process.is_alive():
                        self._busy.add(worker)
                        return worker
                    self._retire(worker)  # died while idle
                if len(self._busy) < self.size:
                    worker = self._spawn_locked()
                    self._busy.add(worker)
                    return worker
                if not self._cv.wait(timeout):
                    raise TimeoutError(
                        "no worker became available in time")

    def release(self, worker: WarmWorker, *,
                recycle: bool = False) -> None:
        """Return a worker; retired when asked, expired or dead."""
        limit = self.recycle_after_executions
        expired = limit is not None and worker.executions >= limit
        with self._cv:
            self._busy.discard(worker)
            if (recycle or expired or self._closed
                    or not worker.process.is_alive()):
                self._retire(worker)
            else:
                self._idle.append(worker)
            self._replenish_locked()
            self._cv.notify_all()

    def run(self, config, spec, *,
            timeout: float | None = None) -> PortfolioResult:
        """One job on a warm worker; :class:`WorkerDied` on casualty.

        ``timeout`` (default: the pool's ``job_timeout``) bounds the
        in-worker wall time; a worker that exceeds it is presumed
        wedged and replaced.
        """
        if timeout is None:
            timeout = self.job_timeout
        worker = self.acquire()
        recycle = False
        try:
            try:
                op, payload = worker.request(("run", (config, spec)),
                                             timeout)
            except WorkerDied:
                recycle = True
                raise
            worker.executions += 1
            self.executions += 1
            if op == "row":
                return payload
            # "failed": the job machinery broke but the worker lives;
            # anything else is protocol corruption — replace it.
            recycle = op != "failed"
            raise WorkerDied(f"worker {worker.pid} reported "
                             f"{op}: {payload}")
        finally:
            self.release(worker, recycle=recycle)

    def health_check(self, timeout: float | None = 5.0) -> int:
        """Ping idle workers; replace the dead/wedged.  Returns how
        many were replaced."""
        with self._cv:
            idle = list(self._idle)
        replaced = 0
        for worker in idle:
            if worker.ping(timeout):
                continue
            with self._cv:
                if worker in self._idle:
                    self._idle.remove(worker)
                    self._retire(worker)
                    replaced += 1
                    self._replenish_locked()
                    self._cv.notify_all()
        return replaced

    def stats(self) -> dict[str, int]:
        with self._cv:
            return {
                "size": self.size,
                "min_idle": self.min_idle,
                "idle": len(self._idle),
                "busy": len(self._busy),
                "spawned": self.spawned,
                "recycled": self.recycled,
                "executions": self.executions,
            }

    def shutdown(self) -> None:
        """Close every worker (idle and busy) and refuse new work."""
        with self._cv:
            self._closed = True
            workers = self._idle + list(self._busy)
            self._idle.clear()
            self._busy.clear()
            self._cv.notify_all()
        for worker in workers:
            worker.close()

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
