"""Tests for the verification daemon (``repro serve``) and its parts.

Unit layers first — the framed wire protocol, the bounded LRU verdict
cache, the warm pre-forked worker pool — then in-process integration
tests that boot a real :class:`VerificationServer` on an ephemeral
port (or a unix socket) and drive it through
:class:`~repro.service.client.ServiceClient`:

* the acceptance criterion: a repeated portfolio submission is served
  entirely from the verdict cache on the second run, with rows
  **bit-identical** to a local :class:`PortfolioVerifier` run;
* concurrent clients submitting the same job resolve to exactly one
  exploration plus N cache hits (the memo's in-flight claim);
* graceful drain: jobs queued at shutdown come back as explicit
  ``cancelled`` rows, never dropped frames;
* a worker killed mid-job yields a structured error row and a
  recycled worker — not a hung server;
* clients reconnect after a restart on the same unix socket path.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.apps.schemes import scheme_grid
from repro.core.framework import TimingVerificationFramework
from repro.core.transform import transform
from repro.mc.memo import MemoEntry
from repro.mc.parallel import EngineConfig
from repro.mc.portfolio import (
    PortfolioJob,
    PortfolioVerifier,
    _compute_obligation,
    _ProcessConfig,
    _ProcessJobSpec,
    portfolio_jobs,
)
from repro.service.cache import BoundedVerdictMemo
from repro.service.client import ServiceClient, ServiceError, parse_address
from repro.service.protocol import (
    MAX_FRAME,
    ProtocolError,
    decode_jobs,
    encode_frame,
    encode_jobs,
    recv_frame,
    send_frame,
)
from repro.service.scheduler import JobScheduler
from repro.service.server import (
    VerificationServer,
    decode_submission,
    resolve_callable,
)
from repro.service.workers import WarmWorker, WarmWorkerPool, WorkerDied

from tests.conftest import build_tiny_pim, build_tiny_scheme

DEADLINE = 10
CHANNELS = dict(input_channel="m_Req", output_channel="c_Ack")

#: Keys legitimately differing between a memoized and an explored row.
VOLATILE = ("seconds", "memo_hit", "derived_from")


def tiny_jobs(schemes=None):
    if schemes is None:
        schemes = scheme_grid(build_tiny_scheme,
                              buffer_size=(1, 2, 3), period=(4, 5))
    return portfolio_jobs(build_tiny_pim(), schemes,
                          deadline_ms=DEADLINE, measure_suprema=True,
                          **CHANNELS)


def stripped(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE}


def local_rows(jobs) -> list[dict]:
    """The daemon's ground truth: a local run's rows, JSON-round-
    tripped exactly like the wire does, volatile keys stripped."""
    rows = [r.row() for r in PortfolioVerifier(jobs=1).run(jobs)]
    return [stripped(json.loads(json.dumps(row, default=str)))
            for row in rows]


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            message = {"op": "ping", "nested": {"n": [1, 2, 3]}}
            send_frame(a, message)
            assert recv_frame(b) == message

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_eof_mid_header_is_protocol_error(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)

    def test_eof_mid_payload_is_protocol_error(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack("!I", 100) + b"short")
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)

    def test_oversized_length_rejected_before_allocation(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack("!I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                recv_frame(b)

    def test_payload_must_be_a_json_object(self):
        a, b = socket.socketpair()
        with a, b:
            payload = b"[1, 2]"
            a.sendall(struct.pack("!I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_frame(b)
            payload = b"not json"
            a.sendall(struct.pack("!I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="not JSON"):
                recv_frame(b)

    def test_encode_frame_shape(self):
        frame = encode_frame({"a": 1})
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == {"a": 1}

    def test_jobs_pickle_roundtrip(self):
        jobs = tiny_jobs([build_tiny_scheme()])
        decoded = decode_jobs(encode_jobs(jobs))
        assert len(decoded) == 1
        assert decoded[0].name == jobs[0].name
        assert decoded[0].deadline_ms == jobs[0].deadline_ms

    def test_jobs_pickle_rejects_garbage(self):
        import base64
        import pickle

        with pytest.raises(ProtocolError, match="base64"):
            decode_jobs(42)
        with pytest.raises(ProtocolError, match="base64"):
            decode_jobs("@@not-base64@@")
        not_a_list = base64.b64encode(
            pickle.dumps({"a": 1})).decode("ascii")
        with pytest.raises(ProtocolError, match="list"):
            decode_jobs(not_a_list)

    def test_parse_address(self):
        assert parse_address("localhost:99") == \
            (socket.AF_INET, ("localhost", 99))
        assert parse_address(":7315") == \
            (socket.AF_INET, ("127.0.0.1", 7315))
        assert parse_address("unix:/tmp/x.sock") == \
            (socket.AF_UNIX, "/tmp/x.sock")
        assert parse_address("/tmp/x.sock") == \
            (socket.AF_UNIX, "/tmp/x.sock")
        assert parse_address(("10.0.0.1", 5)) == \
            (socket.AF_INET, ("10.0.0.1", 5))
        with pytest.raises(ValueError):
            parse_address("nonsense")


# ----------------------------------------------------------------------
# Bounded verdict cache
# ----------------------------------------------------------------------
class _AnyModel:
    """Covers-everything stand-in (no erased sites)."""

    erased = ()


def _entry(name: str) -> MemoEntry:
    return MemoEntry(donor=name, erased=(), maxima={},
                     constraints=None, original=None, relaxed=None)


class TestBoundedVerdictMemo:
    def test_evicts_least_recently_used_key(self):
        memo = BoundedVerdictMemo(max_entries=2)
        memo.record(("k1",), _entry("a"))
        memo.record(("k2",), _entry("b"))
        memo.record(("k3",), _entry("c"))
        assert memo.evictions == 1
        assert memo.find(("k1",), _AnyModel()) is None
        assert memo.find(("k2",), _AnyModel()) is not None
        assert memo.find(("k3",), _AnyModel()) is not None
        assert len(memo) == 2

    def test_find_refreshes_recency(self):
        memo = BoundedVerdictMemo(max_entries=2)
        memo.record(("k1",), _entry("a"))
        memo.record(("k2",), _entry("b"))
        assert memo.find(("k1",), _AnyModel()) is not None  # refresh
        memo.record(("k3",), _entry("c"))
        # k2, not k1, was the least recently used.
        assert memo.find(("k1",), _AnyModel()) is not None
        assert memo.find(("k2",), _AnyModel()) is None

    def test_eviction_drops_every_entry_of_the_key(self):
        memo = BoundedVerdictMemo(max_entries=1)
        memo.record(("k1",), _entry("a"))
        memo.record(("k1",), _entry("a2"))
        assert len(memo) == 2
        memo.record(("k2",), _entry("b"))
        assert len(memo) == 1
        assert memo.evictions == 1

    def test_stats_and_validation(self):
        memo = BoundedVerdictMemo(max_entries=4)
        memo.record(("k",), _entry("a"))
        memo.find(("k",), _AnyModel())
        stats = memo.stats()
        assert stats["keys"] == 1
        assert stats["max_entries"] == 4
        assert stats["evictions"] == 0
        assert stats["hits"] == 1
        with pytest.raises(ValueError):
            BoundedVerdictMemo(max_entries=0)

    def test_inflight_protocol_survives_subclassing(self):
        memo = BoundedVerdictMemo(max_entries=2)
        assert memo.claim(("k",)) is None
        waiter = memo.claim(("k",))
        assert waiter is not None and not waiter.event.is_set()
        memo.commit(("k",), _entry("a"))
        assert waiter.event.is_set() and not waiter.failed
        assert memo.find(("k",), _AnyModel()) is not None


# ----------------------------------------------------------------------
# Warm worker pool
# ----------------------------------------------------------------------
def _job_payload():
    """A real (config, spec) pair runnable on a warm worker."""
    job = PortfolioJob(name="tiny", pim=build_tiny_pim(),
                       scheme=build_tiny_scheme(),
                       deadline_ms=DEADLINE, **CHANNELS)
    obligation = _compute_obligation(job, TimingVerificationFramework())
    config = _ProcessConfig(
        engine=EngineConfig(), max_states=2_000_000,
        obligations=(obligation,), reuse=True)
    return config, _ProcessJobSpec(index=0, job=job, obligation=0)


class TestWarmWorkerPool:
    def test_preforks_min_idle_and_runs_jobs(self):
        with WarmWorkerPool(2) as pool:
            stats = pool.stats()
            assert stats["idle"] == 2 and stats["spawned"] == 2
            config, spec = _job_payload()
            row = pool.run(config, spec)
            assert row.status == "ok"
            assert pool.stats()["executions"] == 1

    def test_recycles_after_execution_limit(self):
        with WarmWorkerPool(1, recycle_after_executions=1) as pool:
            config, spec = _job_payload()
            assert pool.run(config, spec).status == "ok"
            assert pool.run(config, spec).status == "ok"
            stats = pool.stats()
            assert stats["recycled"] >= 1
            assert stats["spawned"] >= 2

    def test_health_check_replaces_dead_idle_workers(self):
        with WarmWorkerPool(2) as pool:
            victim = pool._idle[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.process.join(5)
            assert pool.health_check(timeout=5.0) == 1
            stats = pool.stats()
            assert stats["idle"] == 2
            assert all(w.ping() for w in pool._idle)

    def test_killed_mid_job_raises_workerdied_and_recovers(
            self, monkeypatch):
        original = WarmWorker.request
        state: dict = {}

        def killing(self, message, timeout=None):
            if message[0] == "run" and "killed" not in state:
                state["killed"] = self.pid
                os.kill(self.pid, signal.SIGKILL)
                self.process.join(5)
            return original(self, message, timeout)

        monkeypatch.setattr(WarmWorker, "request", killing)
        with WarmWorkerPool(1) as pool:
            config, spec = _job_payload()
            with pytest.raises(WorkerDied):
                pool.run(config, spec)
            assert pool.stats()["recycled"] >= 1
            # The replacement worker serves the next job fine.
            assert pool.run(config, spec).status == "ok"

    def test_failed_report_keeps_the_worker(self, monkeypatch):
        monkeypatch.setattr(
            WarmWorker, "request",
            lambda self, message, timeout=None: ("failed", "boom"))
        with WarmWorkerPool(1) as pool:
            with pytest.raises(WorkerDied, match="boom"):
                pool.run(object(), object())
            # A "failed" report means the worker itself is healthy.
            assert pool.stats()["recycled"] == 0
            assert pool.stats()["idle"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmWorkerPool(0)
        with pytest.raises(ValueError):
            WarmWorkerPool(1, min_idle=2)
        with pytest.raises(ValueError):
            WarmWorkerPool(1, recycle_after_executions=0)

    def test_shutdown_refuses_new_work(self):
        pool = WarmWorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.acquire()


# ----------------------------------------------------------------------
# In-process daemon harness
# ----------------------------------------------------------------------
class Daemon:
    """A real server on an ephemeral port, run on a thread's loop."""

    def __init__(self, *, path=None, **scheduler_kwargs):
        scheduler_kwargs.setdefault("jobs", 2)
        self.scheduler = JobScheduler(**scheduler_kwargs)
        where = {"path": path} if path else {"port": 0}
        self.server = VerificationServer(
            self.scheduler, install_signals=False, **where)
        self._started = threading.Event()
        self._boot_error: BaseException | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._started.wait(30) or self._boot_error:
            raise RuntimeError(
                f"server failed to start: {self._boot_error}")

    def _run(self) -> None:
        import asyncio

        async def main():
            await self.server.start()
            self._started.set()
            await self.server.serve()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface boot/serve failures
            self._boot_error = exc
            self._started.set()

    def client(self) -> ServiceClient:
        return ServiceClient(self.server.address, timeout=120.0)

    def stop(self, timeout: float = 60.0) -> None:
        with contextlib.suppress(RuntimeError):
            self.server.request_shutdown()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), \
            "server thread failed to drain"
        if self._boot_error is not None:
            raise self._boot_error


@contextlib.contextmanager
def daemon(**kwargs):
    d = Daemon(**kwargs)
    try:
        yield d
    finally:
        d.stop()


# ----------------------------------------------------------------------
# Daemon integration
# ----------------------------------------------------------------------
class TestDaemon:
    def test_ping_stats_and_unknown_op(self):
        with daemon() as d, d.client() as client:
            pong = client.ping()
            assert pong["type"] == "pong"
            assert pong["pid"] == os.getpid()
            assert pong["draining"] is False
            stats = client.stats()
            assert stats["executor"] == "thread"
            assert set(stats["jobs"]) >= {"submitted", "completed",
                                          "cancelled", "errors"}
            with pytest.raises(ServiceError, match="unknown op"):
                client._roundtrip({"op": "frobnicate"})

    def test_stats_report_the_resolved_engine(self):
        """The daemon resolves its engine config once and reports it;
        every path below runs on that config."""
        with daemon(backend="reference", jobs=None) as d, \
                d.client() as client:
            engine = client.stats()["engine"]
            assert engine == {"backend": "reference",
                              "abstraction": "extra_m", "jobs": None,
                              "executor": "thread"}
            model = d.scheduler.monitor_model(
                transform(build_tiny_pim(), build_tiny_scheme()))
            assert model.backend.name == "reference"

    def test_second_run_served_entirely_from_cache(self):
        """The acceptance criterion: repeated portfolio → 100%
        cache-hit second run, rows bit-identical to a local
        PortfolioVerifier run."""
        jobs = tiny_jobs()
        expected = local_rows(jobs)
        with daemon(jobs=2, dispatch_threads=4) as d:
            with d.client() as client:
                first = client.run_jobs(jobs)
                second = client.run_jobs(jobs)
            hits = d.scheduler.memo.hits
        assert [stripped(r) for r in first.ordered_rows()] == expected
        assert [stripped(r) for r in second.ordered_rows()] == expected
        assert "explored" in first.origins()
        assert second.origins() == ["memo"] * len(jobs)
        assert (second.stats or {})["cache"]["hits"] >= len(jobs)
        assert hits >= len(jobs)

    def test_concurrent_clients_one_exploration_n_hits(self):
        jobs = tiny_jobs([build_tiny_scheme()])
        with daemon(jobs=4, dispatch_threads=4) as d:
            outcomes: list = [None] * 4
            errors: list = []

            def submit(i: int) -> None:
                try:
                    with d.client() as client:
                        outcomes[i] = client.run_jobs(jobs)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not errors
        origins = [out.origins()[0] for out in outcomes]
        assert origins.count("explored") == 1
        assert origins.count("memo") == 3
        rows = [stripped(out.ordered_rows()[0]) for out in outcomes]
        assert all(row == rows[0] for row in rows)

    def test_declarative_submission_over_the_wire(self):
        with daemon(jobs=2) as d, d.client() as client:
            outcome = client.run({
                "op": "portfolio",
                "pim_factory": "tests.conftest:build_tiny_pim",
                "scheme_factory": "tests.conftest:build_tiny_scheme",
                "axes": {"buffer_size": [1, 2]},
                "deadline_ms": DEADLINE,
                **CHANNELS,
            })
        assert outcome.jobs == 2
        assert [r["status"] for r in outcome.ordered_rows()] == \
            ["ok", "ok"]

    def test_bad_submission_is_an_error_frame_not_a_crash(self):
        with daemon() as d, d.client() as client:
            with pytest.raises(ServiceError, match="jobs_pickle"):
                client.run({"op": "submit", "jobs_pickle": "@@@"})
            with pytest.raises(ServiceError, match="missing"):
                client.run({"op": "verify"})
            # The connection and server both survive.
            assert client.ping()["type"] == "pong"

    def test_drain_cancels_queued_jobs_explicitly(self):
        """Graceful-drain semantics (what SIGTERM triggers): the
        running job finishes, queued jobs come back as ``cancelled``
        rows, and the client still gets every frame plus ``done``."""
        jobs = tiny_jobs()
        d = Daemon(jobs=1, dispatch_threads=1)
        try:
            started = threading.Event()
            release = threading.Event()
            original = d.scheduler._execute_job

            def blocking(index, job):
                row = original(index, job)
                if index == 0:
                    started.set()
                    release.wait(60)
                return row

            d.scheduler._execute_job = blocking
            box: dict = {}

            def submit() -> None:
                with d.client() as client:
                    box["out"] = client.run_jobs(jobs)

            t = threading.Thread(target=submit)
            t.start()
            assert started.wait(60)
            d.server.request_shutdown()
            deadline = time.monotonic() + 30
            while not d.scheduler.draining:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            release.set()
            t.join(120)
            assert not t.is_alive()
        finally:
            release.set()
            d.stop()
        out = box["out"]
        statuses = [r["status"] for r in out.ordered_rows()]
        assert statuses[0] == "ok"
        assert statuses[1:] == ["cancelled"] * 5
        cancelled = out.ordered_rows()[1]
        assert "shutdown" in cancelled["error"]
        assert out.origins()[1:] == ["cancelled"] * 5

    def test_shutdown_op_drains_the_server(self):
        with daemon() as d:
            with d.client() as client:
                client.shutdown_server()
            d.thread.join(60)
            assert not d.thread.is_alive()

    def test_reconnect_after_restart_on_same_unix_path(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        jobs = tiny_jobs([build_tiny_scheme()])
        first = Daemon(path=path, jobs=1)
        try:
            with first.client() as client:
                before = client.run_jobs(jobs)
        finally:
            first.stop()
        second = Daemon(path=path, jobs=1)
        try:
            with second.client() as client:
                after = client.run_jobs(jobs)
        finally:
            second.stop()
        # Fresh server, fresh cache: explored again, same row.
        assert before.origins() == ["explored"]
        assert after.origins() == ["explored"]
        assert stripped(after.ordered_rows()[0]) == \
            stripped(before.ordered_rows()[0])

    def test_killed_worker_mid_job_error_row_not_hung_server(
            self, monkeypatch):
        original = WarmWorker.request
        state: dict = {}

        def killing(self, message, timeout=None):
            if message[0] == "run" and "killed" not in state:
                state["killed"] = self.pid
                os.kill(self.pid, signal.SIGKILL)
                self.process.join(5)
            return original(self, message, timeout)

        monkeypatch.setattr(WarmWorker, "request", killing)
        jobs = tiny_jobs([build_tiny_scheme()])
        with daemon(jobs=1, executor="process", workers=1) as d:
            with d.client() as client:
                bad = client.run_jobs(jobs)
                good = client.run_jobs(jobs)
                assert client.ping()["type"] == "pong"
            assert d.scheduler.workers.stats()["recycled"] >= 1
            assert d.scheduler.memo.failures == 1
        row = bad.ordered_rows()[0]
        assert row["status"] == "error"
        assert "WorkerDied" in row["error"]
        # The recycled worker serves the retry; the failed commit left
        # no cache entry, so it explores.
        assert good.origins() == ["explored"]
        assert good.ordered_rows()[0]["status"] == "ok"

    def test_worker_recycle_across_requests(self):
        schemes = scheme_grid(build_tiny_scheme, period=(4, 5))
        jobs = tiny_jobs(schemes)
        with daemon(jobs=1, executor="process", workers=1,
                    recycle_after_executions=1) as d:
            with d.client() as client:
                outcome = client.run_jobs(jobs)
            stats = d.scheduler.workers.stats()
        assert [r["status"] for r in outcome.ordered_rows()] == \
            ["ok", "ok"]
        assert stats["executions"] == 2
        assert stats["recycled"] >= 1
        assert stats["spawned"] >= 2


# ----------------------------------------------------------------------
# Submission decoding (no server needed)
# ----------------------------------------------------------------------
class TestDecodeSubmission:
    def test_by_value(self):
        jobs = tiny_jobs([build_tiny_scheme()])
        decoded = decode_submission(
            {"op": "submit", "jobs_pickle": encode_jobs(jobs)})
        assert [j.name for j in decoded] == [jobs[0].name]

    def test_declarative_grid(self):
        jobs = decode_submission({
            "op": "portfolio",
            "pim_factory": "tests.conftest:build_tiny_pim",
            "scheme_factory": "tests.conftest:build_tiny_scheme",
            "axes": {"buffer_size": [1, 2], "period": [4, 5]},
            "deadline_ms": DEADLINE,
            **CHANNELS,
        })
        assert len(jobs) == 4
        assert all(j.deadline_ms == DEADLINE for j in jobs)

    def test_missing_fields(self):
        with pytest.raises(ProtocolError, match="missing"):
            decode_submission({"op": "verify",
                               "pim_factory": "x:y"})

    def test_resolve_callable(self):
        assert resolve_callable(
            "tests.conftest:build_tiny_pim") is build_tiny_pim
        with pytest.raises(ValueError):
            resolve_callable("no-colon")
        with pytest.raises(ValueError):
            resolve_callable("json:__version__")  # not callable


# ----------------------------------------------------------------------
# The monitor op
# ----------------------------------------------------------------------
def simulated_trace(seed=0, trials=3):
    """One closed-loop run of the tiny platform, as trace events."""
    from repro.codegen import build_controller
    from repro.envs import ClosedLoopRequester
    from repro.platforms import ImplementedSystem

    pim, scheme = build_tiny_pim(), build_tiny_scheme()
    controller = build_controller(pim.m,
                                  constants=pim.network.constants)
    system = ImplementedSystem(controller, scheme,
                               pim.input_channels(),
                               pim.output_channels(), seed=seed)
    requester = ClosedLoopRequester(system, "m_Req", "c_Ack",
                                    count=trials, think_ms=(20, 40),
                                    timeout_ms=500, first_press_ms=5)
    system.start()
    requester.start()
    system.run_for(trials * 600 + 1000)
    return list(system.trace)


class TestMonitorOp:
    FACTORIES = dict(pim_factory="tests.conftest:build_tiny_pim",
                     scheme_factory="tests.conftest:build_tiny_scheme")

    def test_conforming_trace_over_the_wire(self):
        trace = simulated_trace()
        with daemon() as d, d.client() as client:
            outcome = client.monitor(
                [trace], requirement=["m_Req", "c_Ack", 30],
                **self.FACTORIES)
        rows = outcome.ordered_rows()
        assert outcome.origins() == ["monitor"]
        assert rows[0]["status"] == "ok"
        assert rows[0]["conforming"] is True
        assert rows[0]["observed"] > 0

    def test_deviation_row_names_the_bound(self):
        import dataclasses
        trace = simulated_trace()
        bad = list(trace)
        for i, event in enumerate(bad):
            if event.kind == "c":
                bad[i] = dataclasses.replace(
                    event, time_us=event.time_us + 400_000)
                break
        with daemon() as d, d.client() as client:
            outcome = client.monitor(
                [trace, bad], requirement=["m_Req", "c_Ack", 30],
                **self.FACTORIES)
        good_row, bad_row = outcome.ordered_rows()
        assert good_row["conforming"] is True
        assert bad_row["conforming"] is False
        deviation = bad_row["deviation"]
        assert deviation["channel"] == "c_Ack"
        assert deviation["delta_us"] > 0

    def test_model_cached_across_requests(self):
        trace = simulated_trace()
        with daemon() as d, d.client() as client:
            client.monitor([trace], **self.FACTORIES)
            client.monitor([trace], **self.FACTORIES)
            stats = client.stats()
            models = len(d.scheduler._monitor_models)
        assert models == 1
        assert stats["monitor"] == {"models": 1, "traces": 2}

    def test_missing_fields_rejected(self):
        with daemon() as d, d.client() as client:
            with pytest.raises(ServiceError, match="missing"):
                client._roundtrip({"op": "monitor",
                                   "traces": [[]]})


class TestDecodeMonitor:
    def test_roundtrip(self):
        from repro.monitor import event_to_dict
        from repro.service.server import decode_monitor

        trace = simulated_trace(trials=2)
        psm, traces, requirement = decode_monitor({
            "op": "monitor",
            "pim_factory": "tests.conftest:build_tiny_pim",
            "scheme_factory": "tests.conftest:build_tiny_scheme",
            "traces": [[event_to_dict(e) for e in trace]],
            "requirement": ["m_Req", "c_Ack", 30],
        })
        assert traces == [trace]
        assert requirement == ("m_Req", "c_Ack", 30)
        assert psm.network is not None

    def test_empty_traces_rejected(self):
        from repro.service.server import decode_monitor

        with pytest.raises(ProtocolError, match="non-empty"):
            decode_monitor({"op": "monitor",
                            "pim_factory": "tests.conftest:build_tiny_pim",
                            "traces": []})
