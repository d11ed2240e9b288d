"""``repro.api`` — the unified front door to the framework.

Every entry point in this repo — the verifier, the portfolio sweep,
the service daemon and the conformance monitor — is configured by the
same four engine knobs (zone backend, abstraction, worker count, job
executor) plus the optional fault axes.

:class:`Session` resolves the knobs **once**, at construction time,
through :meth:`~repro.mc.parallel.EngineConfig.resolve` — the only
code that reads the ``REPRO_*`` environment variables — in the order
*explicit argument > environment variable > default*.  The resolved
values are then passed explicitly to every layer below (framework,
portfolio verifier, explorers, monitor models); nothing is installed
process-wide, so sessions with different settings can run
concurrently in one process::

    from repro.api import Session

    s = Session(backend="numpy", jobs=4)
    report = s.verify(pim, scheme, input_channel="m_BolusReq",
                      output_channel="c_StartInfusion",
                      deadline_ms=500)
    verdicts = s.monitor([trace], pim=pim, scheme=scheme)

A mis-set environment variable (say ``REPRO_JOBS=banana``) therefore
fails at ``Session(...)`` time with a targeted
:class:`~repro.envvars.EnvVarError`, not halfway through a long
verification run.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.framework import (
    TimingVerificationFramework,
    VerificationReport,
)
from repro.mc.parallel import EngineConfig
from repro.ta.bounds import resolve_abstraction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor import MonitorModel
    from repro.service.client import ServiceClient

__all__ = ["Session"]

#: ``Session(faults=...)`` accepts the same axis names as the CLI
#: ``--faults`` flag (short spellings) or the scheme-factory keyword
#: names directly.
FAULT_AXES = {
    "k": "fault_k",
    "replicas": "fault_r",
    "jitter": "fault_eps",
    "fault_k": "fault_k",
    "fault_r": "fault_r",
    "fault_eps": "fault_eps",
}


def _normalize_faults(faults) -> dict[str, list[int]]:
    """Canonicalize a fault mapping to ``{axis: [values...]}``."""
    axes: dict[str, list[int]] = {}
    for key, value in dict(faults or {}).items():
        name = FAULT_AXES.get(key)
        if name is None:
            raise ValueError(
                f"unknown fault axis {key!r} (choose from: "
                f"{', '.join(sorted(set(FAULT_AXES)))})")
        values = list(value) if isinstance(value, (list, tuple)) \
            else [value]
        axes[name] = [int(v) for v in values]
    return axes


class Session:
    """One resolved configuration, many verification verbs.

    Each engine knob resolves once, here, in the order *explicit
    argument > ``REPRO_*`` environment variable > default*; the
    resolved values are passed explicitly to every call the session
    makes.

    Parameters
    ----------
    backend:
        Zone-backend spec (``auto`` / ``reference`` / ``numpy`` /
        ``native``); ``None`` defers to ``REPRO_ZONE_BACKEND``, then
        ``auto``.
    abstraction:
        Extrapolation operator (``extra_m`` / ``extra_lu``); ``None``
        defers to ``REPRO_ABSTRACTION``, then ``extra_m``.
    jobs:
        Worker count for the sharded explorer; ``None`` defers to
        ``REPRO_JOBS`` (and then means the sequential engine).
    executor:
        Portfolio job executor (``thread`` / ``process``); ``None``
        defers to ``REPRO_EXECUTOR`` / ``thread``.
    faults:
        Optional fault axes applied when call sites build schemes from
        this session (``{"k": 1}`` or sweeps ``{"k": [0, 1]}``); the
        keys accept both the CLI spellings and the scheme-factory
        keyword names.
    max_states:
        Symbolic-state budget for each verification obligation.
    monitor_max_states:
        Budget for :meth:`monitor` precompilation (monitor networks
        are one scheme each, so the default is smaller).
    """

    def __init__(self, *, backend: str | None = None,
                 abstraction: str | None = None,
                 jobs: int | None = None,
                 executor: str | None = None,
                 faults: Mapping | None = None,
                 max_states: int = 1_000_000,
                 monitor_max_states: int = 200_000):
        self.engine = EngineConfig.resolve(
            backend=backend, abstraction=abstraction, jobs=jobs,
            executor=executor)
        self.backend = self.engine.backend
        self.abstraction = resolve_abstraction(self.engine.abstraction)
        self.jobs = self.engine.jobs
        self.executor = self.engine.executor
        self.faults = _normalize_faults(faults)
        self.max_states = max_states
        self.monitor_max_states = monitor_max_states
        self._framework: TimingVerificationFramework | None = None
        self._monitor_models: dict[str, "MonitorModel"] = {}

    # -- introspection -------------------------------------------------
    def describe(self) -> dict:
        """The resolved configuration, JSON-friendly."""
        return {
            **asdict(self.engine),
            "faults": {k: list(v) for k, v in self.faults.items()},
            "max_states": self.max_states,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        knobs = ", ".join(f"{k}={v!r}"
                          for k, v in self.describe().items())
        return f"Session({knobs})"

    # -- fault-axis helpers --------------------------------------------
    def fault_values(self) -> dict[str, int]:
        """Scalar fault axes (the single-scheme ``verify`` shape)."""
        single = {}
        for name, values in self.faults.items():
            if len(values) != 1:
                raise ValueError(
                    f"verify takes one value per fault axis, got "
                    f"{name}={values} (sweeps belong to 'portfolio')")
            single[name] = values[0]
        return single

    def fault_axes(self) -> dict[str, list[int]]:
        """Fault axes as grid sweeps (the ``portfolio`` shape)."""
        return {name: list(values)
                for name, values in self.faults.items()}

    @property
    def framework(self) -> TimingVerificationFramework:
        """The lazily-built engine behind :meth:`verify`."""
        if self._framework is None:
            self._framework = TimingVerificationFramework(
                max_states=self.max_states,
                jobs=self.jobs,
                backend=self.backend,
                abstraction=self.abstraction.name)
        return self._framework

    # -- the verbs -----------------------------------------------------
    def verify(self, pim, scheme, *, input_channel: str,
               output_channel: str, deadline_ms: int,
               **kwargs) -> VerificationReport:
        """Run the full pipeline on one (PIM, scheme) pair.

        Accepts the same keyword arguments as
        :meth:`~repro.core.framework.TimingVerificationFramework.verify`
        (``min_interarrival_ms``, ``measure_suprema``, ...).
        """
        return self.framework.verify(
            pim, scheme,
            input_channel=input_channel,
            output_channel=output_channel,
            deadline_ms=deadline_ms, **kwargs)

    def portfolio(self, pim, schemes, *, input_channel: str,
                  output_channel: str, deadline_ms: int,
                  executor: str | None = None, **kwargs):
        """Verify a scheme grid concurrently (design-space sweep).

        The session's resolved ``executor`` is the default; all other
        keyword arguments pass through to
        :meth:`~repro.core.framework.TimingVerificationFramework.verify_portfolio`.
        """
        return self.framework.verify_portfolio(
            pim, schemes,
            input_channel=input_channel,
            output_channel=output_channel,
            deadline_ms=deadline_ms,
            executor=executor if executor is not None
            else self.executor,
            **kwargs)

    # -- monitoring ----------------------------------------------------
    def monitor_model(self, *, pim=None, scheme=None,
                      psm=None) -> "MonitorModel":
        """A precompiled :class:`~repro.monitor.MonitorModel`.

        Models are cached on the session keyed by the canonical PSM
        digest, so repeated :meth:`monitor` calls against the same
        scheme skip the zone-graph precompilation.  They use the
        default observation-clock ceiling; a caller needing another
        one builds :class:`~repro.monitor.MonitorModel` directly.
        """
        from repro.monitor import MonitorModel
        from repro.ta.rename import canonical_network

        if psm is None:
            if pim is None or scheme is None:
                raise ValueError(
                    "monitor_model needs either psm= or both pim= "
                    "and scheme=")
            from repro.core.transform import transform
            psm = transform(pim, scheme)
        digest = canonical_network(psm.network).digest
        model = self._monitor_models.get(digest)
        if model is None:
            model = MonitorModel(
                psm, zone_backend=self.backend,
                abstraction=self.abstraction.name,
                max_states=self.monitor_max_states)
            model.precompile()
            self._monitor_models[digest] = model
        return model

    def monitor(self, traces: Sequence[Iterable], *, pim=None,
                scheme=None, psm=None,
                requirement: tuple[str, str, int] | None = None,
                batch: bool = True) -> list[dict]:
        """Check recorded traces against a scheme's PSM.

        ``traces`` is a sequence of event streams (each an iterable of
        :class:`~repro.sim.trace.TraceEvent`).  Returns one verdict
        dict per trace, in order — see
        :meth:`repro.monitor.MonitorSession.verdict` for the shape.
        ``requirement`` optionally names ``(input_channel,
        output_channel, deadline_ms)`` so deviation reports can quote
        the measured end-to-end delay against the deadline.
        """
        from repro.monitor import BatchMonitor

        model = self.monitor_model(pim=pim, scheme=scheme, psm=psm)
        streams = [list(t) for t in traces]
        runner = BatchMonitor(model, len(streams),
                              requirement=requirement,
                              vectorized=None if batch else False)
        runner.feed(streams)
        return runner.verdicts()

    # -- service -------------------------------------------------------
    def serve_client(self, address: str, *,
                     timeout: float = 300.0) -> "ServiceClient":
        """A connected :class:`~repro.service.client.ServiceClient`.

        The caller owns the connection (use it as a context manager
        or call ``close()``).
        """
        from repro.service.client import ServiceClient

        client = ServiceClient(address, timeout=timeout)
        client.connect()
        return client

