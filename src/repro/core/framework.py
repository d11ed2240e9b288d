"""End-to-end verification pipeline — the paper's framework (Theorem 1).

:class:`TimingVerificationFramework` strings the pieces together the
way Section VI does:

1. verify the PIM against ``P(Δ_mc)`` (model checking),
2. transform the PIM into the PSM for the chosen scheme,
3. verify the four boundedness constraints on the PSM,
4. derive the relaxed bound ``Δ'_mc`` (Lemmas 1–2),
5. verify ``PSM ⊨ P(Δ'_mc)`` — by Theorem 1, the implementation then
   satisfies ``P(Δ'_mc)`` too (assuming the platform is correctly
   described by the scheme, which testing validates);
6. also check whether the *original* deadline survives on the PSM
   (in the case study it does not: ``PSM ⊭ P(500)``).

Steps 3, 5 and 6 — plus the optional exact suprema — ask about the
same PSM, so :meth:`TimingVerificationFramework.check_psm` answers
them from **one** zone-graph sweep
(:func:`repro.core.constraints.sweep_psm`); step 4 runs first because
step 5's deadline is its result.

The resulting :class:`VerificationReport` carries every verified
number Table I's upper row needs.

Beyond the paper, :meth:`TimingVerificationFramework.verify_portfolio`
runs the same pipeline over a whole *portfolio* of candidate schemes
(a :func:`repro.apps.schemes.scheme_grid` sweep), scheduled
concurrently over one shared worker pool — see
:mod:`repro.mc.portfolio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.constraints import (
    ConstraintReport,
    PSMSweep,
    check_all_constraints,
    check_progress,
    sweep_psm,
)
from repro.core.delays import (
    DelayBounds,
    bounds_from_internal,
    internal_delay,
)
from repro.core.pim import PIM
from repro.core.psm import PSM
from repro.core.scheme import ImplementationScheme
from repro.core.transform import transform
from repro.mc.observers import (
    BoundedResponseResult,
    DelayBound,
    check_bounded_response,
)

__all__ = ["TimingVerificationFramework", "VerificationReport"]


@dataclass
class VerificationReport:
    """Everything the framework establishes for one (m, c) pair."""

    input_channel: str
    output_channel: str
    deadline_ms: int
    #: Step 1 — PIM ⊨ P(Δ_mc)?
    pim_result: BoundedResponseResult | None = None
    #: Step 3 — the four constraints (+ progress).
    constraints: ConstraintReport | None = None
    #: Step 4 — Lemma 1/2 bounds.
    bounds: DelayBounds | None = None
    #: Step 5 — PSM ⊨ P(Δ'_mc)?
    psm_relaxed_result: BoundedResponseResult | None = None
    #: Step 6 — PSM ⊨ P(Δ_mc)? (usually not, that is the point)
    psm_original_result: BoundedResponseResult | None = None
    #: Optional exact suprema measured on the PSM.
    symbolic: dict[str, DelayBound] = field(default_factory=dict)
    psm: PSM | None = None

    # ------------------------------------------------------------------
    @property
    def pim_holds(self) -> bool:
        return bool(self.pim_result and self.pim_result.holds)

    @property
    def constraints_hold(self) -> bool:
        return bool(self.constraints and self.constraints.all_hold)

    @property
    def relaxed_deadline_ms(self) -> int | None:
        return self.bounds.relaxed if self.bounds else None

    @property
    def implementation_guarantee(self) -> bool:
        """Theorem 1's conclusion for ``P(Δ'_mc)``."""
        return bool(self.constraints_hold and self.psm_relaxed_result
                    and self.psm_relaxed_result.holds)

    def summary(self) -> str:
        lines = [
            f"Timing verification for {self.input_channel} → "
            f"{self.output_channel}, Δ_mc = {self.deadline_ms}ms",
        ]
        if self.pim_result is not None:
            lines.append(f"  [1] PIM:  {self.pim_result.summary()}")
        if self.constraints is not None:
            status = "satisfied" if self.constraints.all_hold \
                else "VIOLATED"
            lines.append(f"  [3] constraints: {status}")
        if self.bounds is not None:
            lines.append(f"  [4] bounds: {self.bounds.summary()}")
        if self.psm_original_result is not None:
            lines.append(
                f"  [6] PSM vs original: "
                f"{self.psm_original_result.summary()}")
        if self.psm_relaxed_result is not None:
            lines.append(
                f"  [5] PSM vs relaxed: "
                f"{self.psm_relaxed_result.summary()}")
        if self.implementation_guarantee:
            lines.append(
                f"  ⇒ Theorem 1: Code(PIM)‖imp IS ⊨ "
                f"P({self.relaxed_deadline_ms})")
        for name, bound in self.symbolic.items():
            lines.append(f"      sup {name} = {bound}")
        return "\n".join(lines)


class TimingVerificationFramework:
    """Front door of the library: PIM + scheme + requirement → report.

    ``jobs`` selects the sharded parallel explorer for every model-
    checking step (``None`` keeps the sequential engine; results are
    identical either way).  ``backend`` selects the zone backend for
    every step (``None`` means ``auto``; results are bit-identical on
    every backend).  ``abstraction`` selects the extrapolation
    operator for every step (``"extra_m"`` — the default, also for
    ``None`` — or ``"extra_lu"`` — same verdicts/bounds/sups, smaller
    zone graphs).  A :class:`~repro.api.Session` resolves all three
    from its arguments and the environment and passes them here.
    """

    def __init__(self, *, max_states: int = 1_000_000,
                 jobs: int | None = None,
                 backend: str | None = None,
                 abstraction: str | None = None):
        self.max_states = max_states
        self.jobs = jobs
        self.backend = backend
        self.abstraction = abstraction

    # ------------------------------------------------------------------
    def verify_pim(self, pim: PIM, input_channel: str,
                   output_channel: str,
                   deadline_ms: int) -> BoundedResponseResult:
        """Step 1: ``PIM ⊨ P(Δ_mc)``?"""
        return check_bounded_response(
            pim.network, input_channel, output_channel, deadline_ms,
            max_states=self.max_states, jobs=self.jobs,
            zone_backend=self.backend, abstraction=self.abstraction)

    def transform(self, pim: PIM,
                  scheme: ImplementationScheme) -> PSM:
        """Step 2: construct the PSM (Section IV)."""
        return transform(pim, scheme)

    def check_constraints(self, psm: PSM, *,
                          min_interarrival_ms: int | None = None,
                          include_progress: bool = False
                          ) -> ConstraintReport:
        """Step 3 alone: the four boundedness constraints (Section V).

        :meth:`verify` asks them inside :meth:`check_psm` instead.
        """
        return check_all_constraints(
            psm, min_interarrival_ms=min_interarrival_ms,
            include_progress=include_progress,
            max_states=self.max_states, jobs=self.jobs,
            zone_backend=self.backend, abstraction=self.abstraction)

    def derive_bounds(self, pim: PIM, scheme: ImplementationScheme,
                      input_channel: str,
                      output_channel: str) -> DelayBounds:
        """Step 4: Lemma 1 bounds + the PIM's internal sup (Lemma 2)."""
        internal = internal_delay(pim, input_channel, output_channel,
                                  max_states=self.max_states,
                                  jobs=self.jobs,
                                  zone_backend=self.backend,
                                  abstraction=self.abstraction)
        return bounds_from_internal(scheme, input_channel,
                                    output_channel, internal)

    def verify_psm_deadlines(self, psm: PSM, input_channel: str,
                             output_channel: str,
                             deadlines_ms: list[int],
                             ) -> list[BoundedResponseResult]:
        """Steps 5+6 alone: every deadline from one shared sweep."""
        return self._sweep(psm, constraints=(),
                           input_channel=input_channel,
                           output_channel=output_channel,
                           deadlines=deadlines_ms).responses

    def measure_psm(self, psm: PSM, input_channel: str,
                    output_channel: str) -> dict[str, DelayBound]:
        """Exact suprema on the PSM (diagnostics / Lemma-1 validation).

        The three sups share one multi-observer exploration; values
        are identical to the individual :func:`max_response_delay`
        runs in :mod:`repro.core.delays`.
        """
        return self._sweep(psm, constraints=(),
                           input_channel=input_channel,
                           output_channel=output_channel,
                           measure_suprema=True).suprema

    def check_psm(self, report: VerificationReport, psm: PSM, *,
                  min_interarrival_ms: int | None = None,
                  measure_suprema: bool = False,
                  include_progress: bool = False,
                  track_maxima: "Sequence[str | tuple[str, ...]]" = (),
                  ) -> PSMSweep:
        """Steps 3, 5 and 6 (+ optional suprema) in one PSM sweep.

        Fills ``report``'s constraints, both deadline verdicts
        (``report.deadline_ms`` and the relaxed bound, so step 4 must
        have run) and, with ``measure_suprema``, its suprema.  The
        progress sanity check stays a separate deadlock search.
        Returns the sweep, whose ``maxima``/``complete`` answer
        ``track_maxima``.
        """
        sweep = self._sweep(
            psm, min_interarrival_ms=min_interarrival_ms,
            input_channel=report.input_channel,
            output_channel=report.output_channel,
            deadlines=[report.deadline_ms, report.bounds.relaxed],
            measure_suprema=measure_suprema, track_maxima=track_maxima)
        progress = ([check_progress(psm, max_states=self.max_states,
                                    zone_backend=self.backend)]
                    if include_progress else [])
        report.constraints = ConstraintReport(progress
                                              + sweep.constraints)
        report.psm_original_result, report.psm_relaxed_result = \
            sweep.responses
        if measure_suprema:
            report.symbolic = sweep.suprema
        return sweep

    def _sweep(self, psm: PSM, **queries) -> PSMSweep:
        return sweep_psm(psm, max_states=self.max_states,
                         jobs=self.jobs, zone_backend=self.backend,
                         abstraction=self.abstraction, **queries)

    # ------------------------------------------------------------------
    def verify(self, pim: PIM, scheme: ImplementationScheme, *,
               input_channel: str, output_channel: str,
               deadline_ms: int,
               min_interarrival_ms: int | None = None,
               measure_suprema: bool = False,
               include_progress: bool = False) -> VerificationReport:
        """The full Section-VI pipeline in one call."""
        report = VerificationReport(
            input_channel=input_channel, output_channel=output_channel,
            deadline_ms=deadline_ms)
        report.pim_result = self.verify_pim(
            pim, input_channel, output_channel, deadline_ms)
        psm = self.transform(pim, scheme)
        report.psm = psm
        report.bounds = self.derive_bounds(
            pim, scheme, input_channel, output_channel)
        self.check_psm(report, psm,
                       min_interarrival_ms=min_interarrival_ms,
                       measure_suprema=measure_suprema,
                       include_progress=include_progress)
        return report

    # ------------------------------------------------------------------
    def verify_portfolio(self, pim: PIM,
                         schemes: Sequence[ImplementationScheme], *,
                         input_channel: str, output_channel: str,
                         deadline_ms: int,
                         min_interarrival_ms: int | None = None,
                         measure_suprema: bool = False,
                         include_progress: bool = False,
                         concurrency: int | None = None,
                         executor: str | None = None,
                         reuse: bool = False,
                         prune_dominated: bool = False,
                         warm_start: bool = False,
                         on_result=None):
        """Step 7: verify a whole portfolio of candidate schemes.

        One :meth:`verify` pipeline per scheme, scheduled concurrently
        over a shared worker pool by
        :class:`repro.mc.portfolio.PortfolioVerifier` (``self.jobs``
        sets the pool width; results per scheme are bit-identical to
        calling :meth:`verify` one scheme at a time).
        ``executor="process"`` partitions the jobs across
        ``self.jobs`` worker *processes* instead of threads — true
        multi-core for the pure-Python reference backend (``None``
        means thread).
        ``reuse=True`` answers schemes whose compiled PSM is
        canonically identical (up to semantically-inert buffer
        capacities) from a verdict memo instead of re-exploring —
        memoized rows are bit-identical to their own sweep;
        ``prune_dominated=True`` additionally derives Theorem-1
        verdicts for points dominated along the monotone poll/period
        axes from a verified harder neighbor (derived rows carry
        ``derived_from`` provenance and no state tallies);
        ``warm_start=True`` keeps one zone-interning table across the
        portfolio so neighboring sweeps share interned zones.
        ``on_result`` is called with each
        :class:`~repro.mc.portfolio.PortfolioResult` as it commits
        (completion order) — the streaming hook the service daemon
        bridges to its clients.
        Returns the job-ordered
        :class:`repro.mc.portfolio.PortfolioOutcome`;
        render it with
        :func:`repro.analysis.portfolio.render_portfolio`.
        """
        from repro.mc.portfolio import PortfolioVerifier

        verifier = PortfolioVerifier(
            jobs=self.jobs, executor=executor, concurrency=concurrency,
            max_states=self.max_states,
            backend=self.backend, abstraction=self.abstraction,
            reuse=reuse,
            prune_dominated=prune_dominated, warm_start=warm_start)
        return verifier.verify_schemes(
            pim, schemes, input_channel=input_channel,
            output_channel=output_channel, deadline_ms=deadline_ms,
            min_interarrival_ms=min_interarrival_ms,
            measure_suprema=measure_suprema,
            include_progress=include_progress,
            on_result=on_result)
