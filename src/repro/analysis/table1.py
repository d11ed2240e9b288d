"""Table I — the paper's experiment result, regenerated.

Combines the framework's verified upper bounds with 60 simulated bolus
trials into the same table the paper prints::

                       M-C delay  Input-Delay  Output-Delay  Buffer overflow
  Verified bound (PSM)   1430ms       490ms        440ms     not occurring
  Measured (IMP)  Avg     ...          ...          ...      not occurring
                  Max     ...          ...          ...
                  Min     ...          ...          ...

plus the REQ1-violation count the paper reports in-text (53 of 60
scenarios above 500 ms).  :func:`run_case_study` is the programmatic
entry; the ``bench_table1`` benchmark and the
``infusion_pump_study.py`` example both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.delays import RequestTiming, pair_requests
from repro.analysis.stats import DelayStats, summarize
from repro.apps.infusion import REQ1_DEADLINE_MS, build_infusion_pim
from repro.apps.schemes import case_study_scheme
from repro.codegen import build_controller
from repro.core.framework import TimingVerificationFramework, \
    VerificationReport
from repro.core.pim import PIM
from repro.core.scheme import ImplementationScheme
from repro.envs import ClosedLoopRequester
from repro.platforms import ImplementedSystem, PlatformStats

__all__ = ["Table1", "MeasuredDelays", "simulate_trials",
           "run_case_study"]


@dataclass
class MeasuredDelays:
    """The measured half of Table I."""

    timings: list[RequestTiming]
    stats: PlatformStats
    requests: int
    responses: int
    timeouts: int

    @property
    def mc(self) -> DelayStats | None:
        return summarize(t.mc_delay for t in self.timings)

    @property
    def input(self) -> DelayStats | None:
        return summarize(t.input_delay for t in self.timings)

    @property
    def output(self) -> DelayStats | None:
        return summarize(t.output_delay for t in self.timings)

    def req_violations(self, deadline_ms: float) -> int:
        """Trials whose M-C delay exceeds the deadline."""
        return sum(1 for t in self.timings
                   if t.mc_delay is not None and t.mc_delay > deadline_ms)

    @property
    def buffer_overflow(self) -> bool:
        return self.stats.any_buffer_overflow


def simulate_trials(pim: PIM, scheme: ImplementationScheme, *,
                    trials: int = 60, seed: int = 2015,
                    input_channel: str = "m_BolusReq",
                    output_channel: str = "c_StartInfusion",
                    think_ms: tuple[int, int] = (2000, 4000),
                    trace_listener=None,
                    ) -> MeasuredDelays:
    """Run the paper's measurement campaign on the simulated platform.

    ``trace_listener`` (optional) sees every
    :class:`~repro.sim.trace.TraceEvent` as it is recorded — the hook
    a live conformance monitor (:mod:`repro.monitor`) attaches to, so
    simulated runs self-check against the verified PSM while they
    execute.
    """
    controller = build_controller(pim.m, constants=pim.network.constants)
    system = ImplementedSystem(
        controller, scheme, pim.input_channels(), pim.output_channels(),
        seed=seed)
    if trace_listener is not None:
        system.trace.add_listener(trace_listener)
    requester = ClosedLoopRequester(
        system, input_channel, output_channel, count=trials,
        think_ms=think_ms)
    system.start()
    requester.start()
    # Generous horizon: every trial takes at most think + one full
    # request-response round trip.
    horizon_ms = trials * (think_ms[1] + 12_000) + 10_000
    system.run_for(horizon_ms)
    timings = pair_requests(system.trace, input_channel, output_channel)
    return MeasuredDelays(
        timings=timings,
        stats=system.stats(),
        requests=requester.requests_made,
        responses=requester.responses_seen,
        timeouts=requester.timeouts,
    )


@dataclass
class Table1:
    """The full reproduced Table I."""

    report: VerificationReport
    measured: MeasuredDelays
    deadline_ms: int = REQ1_DEADLINE_MS
    notes: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def verified_mc(self) -> int:
        assert self.report.bounds is not None
        return self.report.bounds.relaxed

    @property
    def verified_input(self) -> int:
        assert self.report.bounds is not None
        return self.report.bounds.input_bound

    @property
    def verified_output(self) -> int:
        assert self.report.bounds is not None
        return self.report.bounds.output_bound

    @property
    def shape_holds(self) -> bool:
        """The paper's headline: measured ≤ verified, everywhere."""
        mc, inp, out = (self.measured.mc, self.measured.input,
                        self.measured.output)
        if mc is None or inp is None or out is None:
            return False
        return (mc.max <= self.verified_mc
                and inp.max <= self.verified_input
                and out.max <= self.verified_output
                and not self.measured.buffer_overflow)

    # ------------------------------------------------------------------
    def render(self) -> str:
        mc, inp, out = (self.measured.mc, self.measured.input,
                        self.measured.output)

        def row(label: str, a: str, b: str, c: str, d: str) -> str:
            return f"| {label:<26} | {a:>10} | {b:>12} | {c:>13} | " \
                   f"{d:>15} |"

        sep = ("+" + "-" * 28 + "+" + "-" * 12 + "+" + "-" * 14
               + "+" + "-" * 15 + "+" + "-" * 17 + "+")
        overflow_model = "not occurring" if self.report.constraints_hold \
            else "OCCURRING"
        overflow_meas = "not occurring" \
            if not self.measured.buffer_overflow else "OCCURRING"

        def ms(value: float | None) -> str:
            return f"{value:.0f}ms" if value is not None else "--"

        lines = [
            "TABLE I. THE EXPERIMENT RESULT (reproduced)",
            sep,
            row("", "M-C delay", "Input-Delay", "Output-Delay",
                "Buffer overflow"),
            sep,
            row("Verified bound (PSM)", f"{self.verified_mc}ms",
                f"{self.verified_input}ms", f"{self.verified_output}ms",
                overflow_model),
            sep,
            row("Measured (IMP)  Avg",
                ms(mc.avg if mc else None),
                ms(inp.avg if inp else None),
                ms(out.avg if out else None), overflow_meas),
            row("                Max",
                ms(mc.max if mc else None),
                ms(inp.max if inp else None),
                ms(out.max if out else None), ""),
            row("                Min",
                ms(mc.min if mc else None),
                ms(inp.min if inp else None),
                ms(out.min if out else None), ""),
            sep,
        ]
        violations = self.measured.req_violations(self.deadline_ms)
        lines.append(
            f"REQ1 (Δ={self.deadline_ms}ms): violated in {violations} of "
            f"{len(self.measured.timings)} measured scenarios "
            f"(paper: 53 of 60)")
        if self.report.psm_original_result is not None:
            lines.append(
                f"PSM ⊨ P({self.deadline_ms})?  "
                f"{'yes' if self.report.psm_original_result.holds else 'no'}"
                f" — paper: no")
        if self.report.psm_relaxed_result is not None:
            lines.append(
                f"PSM ⊨ P({self.verified_mc})?  "
                f"{'yes' if self.report.psm_relaxed_result.holds else 'no'}"
                f" — paper: yes")
        lines.append(
            f"shape holds (all measured ≤ verified, no overflow): "
            f"{self.shape_holds}")
        lines.extend(self.notes)
        return "\n".join(lines)


def run_case_study(*, trials: int = 60, seed: int = 2015,
                   framework: TimingVerificationFramework | None = None,
                   measure_suprema: bool = False,
                   include_progress: bool = False) -> Table1:
    """The complete Section-VI experiment: verify + measure + tabulate.

    ``framework`` is the engine the verification runs on (default: a
    default-configured one with a 2M-state budget; the CLI passes its
    session's).  ``include_progress`` additionally runs the
    (expensive) stuck-state scan; the dedicated constraint benchmark
    covers it.
    """
    pim = build_infusion_pim()
    scheme = case_study_scheme()
    if framework is None:
        framework = TimingVerificationFramework(max_states=2_000_000)
    report = framework.verify(
        pim, scheme,
        input_channel="m_BolusReq",
        output_channel="c_StartInfusion",
        deadline_ms=REQ1_DEADLINE_MS,
        measure_suprema=measure_suprema,
        include_progress=include_progress)
    measured = simulate_trials(pim, scheme, trials=trials, seed=seed)
    return Table1(report=report, measured=measured)
