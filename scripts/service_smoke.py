#!/usr/bin/env python
"""End-to-end smoke test of the ``repro serve`` daemon.

Boots the daemon as a real subprocess (``python -m repro.cli
--zone-backend reference --jobs 2 serve`` on a unix socket), then
exercises the acceptance path of the service:

1. ping until the server answers;
2. submit a 6-scheme tiny portfolio — rows must be **bit-identical**
   (volatile keys aside) to a local ``PortfolioVerifier`` run;
3. submit the same portfolio again — every row must now be served
   from the verdict cache (``origin == "memo"`` for all jobs, cache
   hits ≥ job count);
4. stream a simulated trace through the ``monitor`` op — the verdict
   must come back conforming, and a second request must reuse the
   server's precompiled monitor model;
5. read ``stats`` — its ``engine`` block must report the one config
   the daemon resolved at boot (``backend == "reference"``,
   ``jobs == 2``) — the sharded reference-backend explorer running
   under the daemon's dispatch threads;
6. SIGTERM the daemon — it must drain and exit 0.

Run from a checkout (``python scripts/service_smoke.py``) or CI; any
failure exits nonzero with a message.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.apps.schemes import scheme_grid  # noqa: E402
from repro.mc.portfolio import PortfolioVerifier, portfolio_jobs  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from tests.conftest import build_tiny_pim, build_tiny_scheme  # noqa: E402

DEADLINE = 10
VOLATILE = ("seconds", "memo_hit", "derived_from")


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def stripped(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE}


def wait_for_server(address: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServiceClient(address, timeout=5.0) as client:
                if client.ping().get("type") == "pong":
                    return
        except (OSError, ServiceError):
            time.sleep(0.2)
    fail(f"server at {address} never answered a ping")


def simulated_trace() -> list:
    """One closed-loop run of the tiny platform, as trace events."""
    from repro.codegen import build_controller
    from repro.envs import ClosedLoopRequester
    from repro.platforms import ImplementedSystem

    pim, scheme = build_tiny_pim(), build_tiny_scheme()
    controller = build_controller(pim.m,
                                  constants=pim.network.constants)
    system = ImplementedSystem(controller, scheme,
                               pim.input_channels(),
                               pim.output_channels(), seed=0)
    requester = ClosedLoopRequester(system, "m_Req", "c_Ack", count=4,
                                    think_ms=(20, 40), timeout_ms=500,
                                    first_press_ms=5)
    system.start()
    requester.start()
    system.run_for(4 * 600 + 1000)
    return list(system.trace)


def main() -> int:
    jobs = portfolio_jobs(
        build_tiny_pim(),
        scheme_grid(build_tiny_scheme, buffer_size=(1, 2, 3),
                    period=(4, 5)),
        input_channel="m_Req", output_channel="c_Ack",
        deadline_ms=DEADLINE, measure_suprema=True)
    expected = [
        stripped(json.loads(json.dumps(r.row(), default=str)))
        for r in PortfolioVerifier(jobs=1).run(jobs)
    ]

    trace = simulated_trace()

    env = dict(os.environ)
    # The daemon resolves monitor factories from tests.conftest, so
    # the repo root joins src/ on its path.
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT),
                    env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        address = os.path.join(tmp, "repro.sock")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli",
             "--zone-backend", "reference", "--jobs", "2", "serve",
             "--unix", address],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            wait_for_server(address)
            with ServiceClient(address, timeout=120.0) as client:
                first = client.run_jobs(jobs)
                second = client.run_jobs(jobs)
                monitored = client.monitor(
                    [trace],
                    pim_factory="tests.conftest:build_tiny_pim",
                    scheme_factory="tests.conftest:build_tiny_scheme",
                    requirement=["m_Req", "c_Ack", DEADLINE])
                remonitored = client.monitor(
                    [trace],
                    pim_factory="tests.conftest:build_tiny_pim",
                    scheme_factory="tests.conftest:build_tiny_scheme")
                stats = client.stats()
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                output, _ = server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                output, _ = server.communicate()
                fail("server did not drain within 60s of SIGTERM")

        if [stripped(r) for r in first.ordered_rows()] != expected:
            fail("first run's rows differ from the local run")
        if [stripped(r) for r in second.ordered_rows()] != expected:
            fail("second run's rows differ from the local run")
        if "explored" not in first.origins():
            fail(f"first run explored nothing: {first.origins()}")
        if second.origins() != ["memo"] * len(jobs):
            fail(f"second run was not 100% cache-served: "
                 f"{second.origins()}")
        hits = stats["cache"]["hits"]
        if hits < len(jobs):
            fail(f"cache hits {hits} < job count {len(jobs)}")
        monitor_rows = monitored.ordered_rows()
        if monitored.origins() != ["monitor"]:
            fail(f"unexpected monitor origins: {monitored.origins()}")
        if not (monitor_rows and monitor_rows[0].get("status") == "ok"
                and monitor_rows[0].get("conforming")):
            fail(f"simulated trace did not conform: {monitor_rows}")
        if not remonitored.ordered_rows()[0].get("conforming"):
            fail("re-monitored trace did not conform")
        engine = stats.get("engine") or {}
        if engine.get("backend") != "reference" \
                or engine.get("jobs") != 2:
            fail(f"daemon does not report the --zone-backend/--jobs "
                 f"it was booted with: engine={engine}")
        monitor_stats = stats.get("monitor") or {}
        if monitor_stats.get("models") != 1:
            fail(f"monitor model not cached across requests: "
                 f"{monitor_stats}")
        if server.returncode != 0:
            fail(f"server exited {server.returncode}:\n{output}")
        if "server drained" not in output:
            fail(f"no drain banner in server output:\n{output}")

    print(f"OK: {len(jobs)} jobs verified twice — run 1 origins "
          f"{first.origins()}, run 2 all memo, {hits} cache hits, "
          f"conforming monitor verdict (model cached), engine "
          f"{engine}, clean SIGTERM drain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
