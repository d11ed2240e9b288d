"""``serve_design_sessions``: the ``repro serve`` daemon, open loop.

One benchmark process boots the daemon on a unix socket, then sends a
seeded schedule of portfolio submissions and monitor requests over one
connection, pipelined: the main thread sends each request when it is
due and a receiver thread reads the replies, so a slow reply delays
only the requests queued behind it in the daemon.  Latency runs from
when a request was due to its ``done`` frame.  Each latency is also
kept scaled to the reference machine speed by probes sampled in this
process while the requests are in flight (:mod:`perfbench.speed`).
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

from perfbench import models
from perfbench.speed import SpeedTrack
from perfbench.workloads import (
    Measured,
    check_monitor_verdicts,
    describe_config,
    strip_volatile,
)

#: Socket and daemon log, relative to the checkout root (a short path:
#: unix socket paths are limited to ~100 bytes).
WORKDIR = os.path.join(".bench_build", "perfbench")


class ServeDesignSessions:
    """``repro serve`` fed an open-loop, seeded request schedule."""

    name = "serve_design_sessions"
    open_loop = True
    RATE_PER_S = 3.0        # mean arrival rate
    MONITOR_SHARE = 0.1     # requests that are monitor requests
    REPEAT_SHARE = 0.15     # portfolio requests repeating an earlier one
    MONITOR_SCHEMES = 4     # distinct schemes monitor requests draw from
    LATE_US = 200_000
    #: Monitor requests name ``perfbench.models:build_pim``, which the
    #: daemon calls without arguments: the default PIM.
    MONITOR_PIM: dict = {}

    def __init__(self, seed: int, seconds: float):
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.daemon = None

    # -- inputs ----------------------------------------------------------
    def _schedule(self) -> None:
        from repro.mc.portfolio import portfolio_jobs
        from repro.service.protocol import encode_jobs

        rng = self.rng
        drawer = models.GridDrawer(rng)
        monitor_schemes = [drawer.scheme_params()
                           for _ in range(self.MONITOR_SCHEMES)]
        # Fixed counts of each kind, in a seeded order, so every run
        # offers the same mix; a repeat needs an earlier portfolio.
        count = max(2, round(self.RATE_PER_S * self.seconds))
        monitors = round(count * self.MONITOR_SHARE)
        repeats = round(count * self.REPEAT_SHARE)
        kinds = (["monitor"] * monitors + ["repeat"] * repeats
                 + ["new"] * (count - monitors - repeats))
        rng.shuffle(kinds)
        first = next(i for i, k in enumerate(kinds) if k != "monitor")
        if kinds[first] == "repeat":
            new = kinds.index("new")
            kinds[first], kinds[new] = "new", "repeat"
        # A jittered grid: one request at a uniform point of each of
        # `count` equal slots — the same load every run, no bursts.
        slot = self.seconds / count
        self.requests = []
        portfolios = []
        for i, kind in enumerate(kinds):
            due = (i + rng.random()) * slot
            if kind == "monitor":
                self.requests.append(
                    self._monitor_request(rng.choice(monitor_schemes),
                                          due))
            elif kind == "repeat":
                self.requests.append(
                    self._repeat(rng.choice(portfolios), due))
            else:
                pim_params, scheme_params = drawer.grid(bases=1)
                jobs = portfolio_jobs(
                    models.build_pim(**pim_params),
                    [models.build_scheme(**p) for p in scheme_params],
                    input_channel=models.INPUT,
                    output_channel=models.OUTPUT,
                    deadline_ms=pim_params["deadline"],
                    measure_suprema=True)
                portfolios.append((
                    "portfolio", due,
                    {"op": "submit", "jobs_pickle": encode_jobs(jobs)},
                    jobs))
                self.requests.append(portfolios[-1])

    def _monitor_request(self, params: dict, due: float):
        """One conforming trace and one that may have a response
        pushed late, both simulated on the default PIM."""
        from repro.monitor import event_to_dict

        rng = self.rng
        conforming = models.simulate_trace(
            self.MONITOR_PIM, params, seed=rng.randrange(1 << 30))
        perturbed, channel = conforming, None
        if rng.random() < 0.5:
            responses = [i for i, e in enumerate(conforming)
                         if e.kind == "c"]
            index = rng.choice(responses)
            perturbed = models.push_late(conforming, index,
                                         self.LATE_US)
            channel = conforming[index].channel
        message = {
            "op": "monitor",
            "pim_factory": "perfbench.models:build_pim",
            "scheme_factory": "perfbench.models:build_scheme",
            "scheme_kwargs": params,
            "traces": [[event_to_dict(e) for e in trace]
                       for trace in (conforming, perturbed)],
        }
        return ("monitor", due, message, [None, channel])

    @staticmethod
    def _repeat(request, due):
        kind, _, message, expected = request
        return (kind, due, message, expected)

    # -- daemon ----------------------------------------------------------
    def _start_daemon(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        os.makedirs(WORKDIR, exist_ok=True)
        self.socket_path = os.path.join(WORKDIR,
                                        f"serve-{os.getpid()}.sock")
        self.address = "unix:" + self.socket_path
        # A file, not a pipe: a chatty daemon must never block on it.
        self.log_path = os.path.join(WORKDIR,
                                     f"serve-{os.getpid()}.log")
        with open(self.log_path, "w") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "--jobs", "2",
                 "serve", "--unix", self.socket_path,
                 "--dispatch-threads", "2"],
                stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                with open(self.log_path) as log:
                    raise RuntimeError(
                        f"daemon exited {self.daemon.returncode}: "
                        f"{log.read()[-2000:]}")
            try:
                client = ServiceClient(self.address, timeout=120.0)
                client.connect()
                if client.ping().get("type") == "pong":
                    self.client = client
                    return
                client.close()
            except (OSError, ServiceError):
                time.sleep(0.005)
        raise RuntimeError("daemon never answered a ping")

    def _stop_daemon(self) -> None:
        if self.daemon is None:
            return
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.daemon = None
        for path in (self.socket_path, self.log_path):
            if os.path.exists(path):
                os.unlink(path)

    def setup(self) -> None:
        self._schedule()
        self._start_daemon()

    # -- the open loop ---------------------------------------------------
    def run(self, seconds, tracer, measured: Measured) -> None:
        from repro.service import protocol

        sock = self.client.sock
        n = len(self.requests)
        sent_at = [None] * n
        done_at = [None] * n
        rows: list[list] = [[] for _ in range(n)]
        errors: list = [None] * n
        order: list[int] = []          # indices in send order
        accepted: dict[int, int] = {}  # request id -> index
        state = {"in_flight": 0, "in_flight_max": 0, "finished": 0}
        lock = threading.Lock()
        all_done = threading.Event()

        def finish(index):
            done_at[index] = time.perf_counter()
            with lock:
                state["in_flight"] -= 1
                state["finished"] += 1
                if state["finished"] == n:
                    all_done.set()

        def receive():
            pending = 0
            while not all_done.is_set():
                frame = protocol.recv_frame(sock)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "accepted":
                    accepted[frame["id"]] = order[pending]
                    pending += 1
                elif kind == "row":
                    rows[accepted[frame["id"]]].append(
                        (frame["index"], frame["row"], frame["origin"]))
                elif kind == "done":
                    finish(accepted[frame["id"]])
                elif kind == "error":
                    index = accepted.get(frame.get("id"))
                    if index is None:
                        index = order[pending]
                        pending += 1
                    errors[index] = frame.get("message")
                    finish(index)
            all_done.set()

        receiver = threading.Thread(target=receive, daemon=True)
        receiver.start()
        # With a tracer, every second request of each kind is sent
        # traced: machine drift hits both sides alike, and both get
        # the same mix of kinds.
        seen: Counter = Counter()
        traced = []
        for kind, *_ in self.requests:
            traced.append(tracer is not None and seen[kind] % 2 == 1)
            seen[kind] += 1
        # Traced runs take no probes (as in the closed loops).
        speed = SpeedTrack() if tracer is None else None
        with speed.sampling() if speed is not None \
                else contextlib.nullcontext():
            if speed is not None:
                speed.take()
            start = time.perf_counter()
            for index, (kind, due, message, _) in \
                    enumerate(self.requests):
                delay = start + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if traced[index]:
                    tracer.op = index
                    tracer.install()
                elif tracer is not None:
                    tracer.uninstall()
                with lock:
                    state["in_flight"] += 1
                    state["in_flight_max"] = max(
                        state["in_flight_max"], state["in_flight"])
                order.append(index)
                sent_at[index] = time.perf_counter()
                protocol.send_frame(sock, message)
            all_done.wait(timeout=seconds + 90)
            if speed is not None:
                speed.take()
        receiver.join(timeout=5)
        if tracer is not None:
            tracer.uninstall()
        last = max((t for t in done_at if t is not None), default=start)
        measured.wall = last - start
        stats = self.client.stats() if not receiver.is_alive() else {}
        measured.peak_rss_mb = self._daemon_peak_rss_mb()
        problems = self._check(rows, errors)
        for index, (kind, due, message, expected) in \
                enumerate(self.requests):
            measured.attempted += 1
            if done_at[index] is None:
                measured.fail(f"request {index}: no reply")
                continue
            if traced[index]:
                measured.traced_durations.append(
                    done_at[index] - (start + due))
            else:
                measured.add(start + due, done_at[index])
            if errors[index] is not None:
                measured.fail(f"request {index}: {errors[index]}")
            elif index in problems:
                measured.fail(f"request {index}: "
                              + "; ".join(problems[index]))
            else:
                measured.units.append(1)
        # The probes ran beside the daemon, not inside its work: no
        # probe time is taken out of a latency.
        measured.scale(speed, interrupted=False)
        cache = stats.get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        measured.layer.update({
            "service.cache_hit_frac":
                cache.get("hits", 0) / lookups if lookups else 0.0,
            "service.explored_rows": sum(
                origin == "explored" for got in rows
                for _, _, origin in got),
            "service.generator_lag_s": max(
                sent_at[i] - (start + self.requests[i][1])
                for i in range(n) if sent_at[i] is not None),
            "service.in_flight_max": state["in_flight_max"],
        })
        measured.notes.update(
            requests=n, daemon_stats=stats,
            portfolio_requests=sum(r[0] == "portfolio"
                                   for r in self.requests),
            monitor_requests=sum(r[0] == "monitor"
                                 for r in self.requests))

    def _daemon_peak_rss_mb(self) -> float | None:
        try:
            with open(f"/proc/{self.daemon.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            return None
        return None

    def _check(self, rows, errors) -> dict[int, list[str]]:
        """The wrong answers, by request index: daemon rows must equal
        a local run of the same jobs; monitor lanes must conform unless
        perturbed, and deviate where perturbed.  A reply without rows
        is checked like any other (and is wrong)."""
        from repro.mc.portfolio import PortfolioVerifier

        local: dict[int, list] = {}
        wrong: dict[int, list[str]] = {}
        for index, (kind, _, message, expected) in \
                enumerate(self.requests):
            if errors[index] is not None:
                continue  # already failed
            got = [row for _, row, _ in sorted(rows[index],
                                               key=lambda r: r[0])]
            if kind == "monitor":
                problems = check_monitor_verdicts(got, expected)
            else:
                key = id(expected)
                if key not in local:
                    local[key] = [
                        strip_volatile(r.row())
                        for r in PortfolioVerifier(jobs=1).run(expected)]
                problems = [] if [strip_volatile(r) for r in got] \
                    == local[key] else ["rows differ from a local run"]
            if problems:
                wrong[index] = problems
        return wrong

    def config(self) -> dict:
        config = describe_config()
        config.update(daemon_jobs=2, dispatch_threads=2,
                      resolved_backend=self._resolved_backend())
        return config

    def _resolved_backend(self) -> str:
        from repro.mc.explorer import ZoneGraphExplorer
        from repro.core.transform import transform

        pim = models.build_pim()
        psm = transform(pim, models.build_scheme())
        return ZoneGraphExplorer(psm.network).backend.name

    def close(self) -> None:
        self._stop_daemon()
