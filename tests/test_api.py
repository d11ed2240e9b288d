"""Tests for :mod:`repro.api` — the unified ``Session`` front door.

The contract under test: every knob resolves ONCE at construction,
with the canonical precedence *explicit argument > environment
variable > default*; a mis-set environment variable fails at
``Session(...)`` time; the resolved values travel explicitly, so
concurrent sessions with different settings never see each other's
configuration.
"""

from __future__ import annotations

import threading
import warnings

import pytest

import repro.api as api
from repro.api import FAULT_AXES, Session
from repro.envvars import EnvVarError
from repro.mc.explorer import ZoneGraphExplorer
from repro.ta.bounds import EXTRA_LU, EXTRA_M
from repro.zones.backend import requested_backend
from tests.conftest import build_tiny_pim, build_tiny_scheme

REQ = dict(input_channel="m_Req", output_channel="c_Ack",
           deadline_ms=30)


@pytest.fixture(autouse=True)
def clean_knob_env(monkeypatch):
    for var in ("REPRO_ZONE_BACKEND", "REPRO_ABSTRACTION",
                "REPRO_JOBS", "REPRO_EXECUTOR"):
        monkeypatch.delenv(var, raising=False)


class TestResolutionOrder:
    def test_defaults(self):
        session = Session()
        assert session.backend == "auto"
        assert session.abstraction.name == EXTRA_M
        assert session.jobs is None
        assert session.executor == "thread"
        assert session.faults == {}

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_BACKEND", "reference")
        monkeypatch.setenv("REPRO_ABSTRACTION", "extra_lu")
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        session = Session()
        assert session.backend == "reference"
        assert session.abstraction.name == EXTRA_LU
        assert session.jobs == 3
        assert session.executor == "process"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_JOBS", "3")
        session = Session(backend="reference", jobs=1)
        assert session.backend == "reference"
        assert session.jobs == 1

    def test_bad_env_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(EnvVarError, match="REPRO_JOBS"):
            Session()

    def test_bad_explicit_backend(self):
        with pytest.raises(ValueError, match="unknown zone backend"):
            Session(backend="cuda")

    def test_describe_is_json_friendly(self):
        import json
        description = Session(jobs=2, faults={"k": 1}).describe()
        assert json.loads(json.dumps(description)) == description
        assert description["jobs"] == 2
        assert description["faults"] == {"fault_k": [1]}


class TestFaults:
    def test_axis_spellings(self):
        session = Session(faults={"k": 1, "replicas": 3,
                                  "jitter": [0, 2]})
        assert session.faults == {"fault_k": [1], "fault_r": [3],
                                  "fault_eps": [0, 2]}
        # Canonical names are accepted verbatim too.
        assert set(FAULT_AXES.values()) <= set(FAULT_AXES)

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown fault axis"):
            Session(faults={"gamma": 1})

    def test_fault_values_rejects_sweeps(self):
        session = Session(faults={"k": [0, 1]})
        with pytest.raises(ValueError, match="portfolio"):
            session.fault_values()
        assert session.fault_axes() == {"fault_k": [0, 1]}

    def test_scalar_fault_values(self):
        session = Session(faults={"k": 1})
        assert session.fault_values() == {"fault_k": 1}


class TestVerbs:
    def test_verify_and_monitor_share_config(self):
        pim, scheme = build_tiny_pim(), build_tiny_scheme()
        session = Session(backend="reference",
                          monitor_max_states=50_000)
        report = session.verify(pim, scheme, **REQ)
        assert report.implementation_guarantee
        model = session.monitor_model(pim=pim, scheme=scheme)
        assert model is session.monitor_model(pim=pim, scheme=scheme)

    def test_backend_pin_is_scoped_to_the_call(self):
        pim, scheme = build_tiny_pim(), build_tiny_scheme()
        session = Session(backend="reference")
        session.verify(pim, scheme, **REQ)
        assert requested_backend() == "auto"
        assert Session().backend == "auto"

    def test_portfolio_uses_session_executor(self):
        from repro.apps.schemes import scheme_grid
        pim = build_tiny_pim()
        schemes = scheme_grid(build_tiny_scheme, buffer_size=(1, 2))
        session = Session(jobs=1, executor="thread")
        results = session.portfolio(pim, schemes, **REQ)
        assert len(results) == 2
        assert all(r.report.implementation_guarantee for r in results)


class TestConcurrentSessions:
    def test_overlapping_sessions_keep_their_own_backend(
            self, monkeypatch):
        """Two Session calls on different backends overlap on two
        threads: each explores with its own backend, and once both
        return the default resolution is unchanged."""
        pim, scheme = build_tiny_pim(), build_tiny_scheme()
        seen: dict[str, set[str]] = {"reference": set(), "numpy": set()}
        reference_inside = threading.Event()
        numpy_inside = threading.Event()
        reference_done = threading.Event()
        original = ZoneGraphExplorer.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            name = threading.current_thread().name
            if name not in seen:
                return
            seen[name].add(self.backend.name)
            # Interleave: the reference call builds its first
            # explorer, then the numpy call starts and builds one
            # while the reference call is still running, and the
            # numpy call finishes only after the reference call.
            if name == "reference" and not reference_inside.is_set():
                reference_inside.set()
                numpy_inside.wait(30)
            elif name == "numpy" and not numpy_inside.is_set():
                numpy_inside.set()
                reference_done.wait(30)

        monkeypatch.setattr(ZoneGraphExplorer, "__init__", spy)
        errors: list[BaseException] = []

        def run(backend: str, start: threading.Event | None,
                done: threading.Event | None) -> None:
            try:
                if start is not None:
                    start.wait(30)
                report = Session(backend=backend).verify(pim, scheme,
                                                         **REQ)
                assert report.implementation_guarantee
            except BaseException as exc:
                errors.append(exc)
            finally:
                if done is not None:
                    done.set()

        threads = [
            threading.Thread(target=run, name="reference",
                             args=("reference", None, reference_done)),
            threading.Thread(target=run, name="numpy",
                             args=("numpy", reference_inside, None)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert not errors, errors
        assert numpy_inside.is_set() and reference_done.is_set()
        assert seen == {"reference": {"reference"},
                        "numpy": {"numpy"}}
        assert requested_backend() == "auto"
        assert Session().backend == "auto"


class TestDeprecatedWrappers:
    def test_wrappers_are_gone(self):
        assert api.__all__ == ["Session"]
        for name in ("verify", "portfolio", "monitor"):
            assert not hasattr(api, name)

    def test_session_itself_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session()
