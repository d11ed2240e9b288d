"""Delay-bound analysis — Section V (Lemmas 1 and 2).

Two independent routes to the paper's bounds, which the test suite
cross-checks against each other:

* **Analytic (Lemma 1)** — closed-form worst cases from the scheme's
  parameters.  For an input read under periodic invocation::

      Δ̄_mi = detection + delivery-wait
           = (polling_interval +) delay_max + period

  and for an output::

      Δ̄_oc = wcet + (polling_interval +) delay_max

  (the ``wcet`` term is the staging window: outputs become visible to
  the Output-Device when the invocation completes).  Aperiodic
  invocation replaces ``period`` with ``latency_max +
  min_separation``.

* **Symbolic (model checking)** — exact suprema measured on the PSM
  with :func:`repro.mc.max_response_delay` (``m_X → i_X`` for the
  Input-Delay, ``o_Y → c_Y`` for the Output-Delay).  Lemma 1 is sound
  iff analytic ≥ symbolic, which the property tests assert.

**Lemma 2** combines them: ``Δ'_mc = Δ̄_mi + Δ̄_oc + Δ_io-internal``,
where the internal delay is the PIM's own m→c supremum (the PIM has no
platform, so its response delay *is* the internal processing delay).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pim import PIM
from repro.core.psm import PSM
from repro.core.scheme import ImplementationScheme, InvocationKind
from repro.mc.observers import DelayBound, max_response_delay

__all__ = [
    "DelayBounds",
    "analytic_input_delay_bound",
    "analytic_output_delay_bound",
    "bounds_from_internal",
    "compute_bound",
    "detection_bound",
    "pickup_bound",
    "relaxed_deadline",
    "start_delay_bound",
    "symbolic_input_delay",
    "symbolic_output_delay",
    "symbolic_mc_delay",
    "internal_delay",
]


def detection_bound(scheme: ImplementationScheme, channel: str) -> int:
    """Worst-case sense-to-ready latency of one input, under faults.

    Each in-transit loss re-executes the processing window (fault axis
    (a): ``+ k·delay_max``) and jitter lets a poll gap stretch to
    ``polling_interval + ε`` (axis (c)).  With faults disabled this is
    exactly ``InputSpec.worst_case_detection``.
    """
    spec = scheme.input_spec(channel)
    faults = scheme.faults
    detection = spec.worst_case_detection()
    detection += faults.max_losses * spec.delay_max
    if spec.polling_interval is not None:
        detection += faults.jitter
    return detection


def start_delay_bound(scheme: ImplementationScheme) -> int:
    """Worst 'input ready' → 'code starts' wait, under jitter.

    A drifting periodic tick may arrive ``ε`` late; the aperiodic
    path has no platform clock to drift.
    """
    inv = scheme.invocation
    delay = inv.worst_case_start_delay()
    if inv.kind in (InvocationKind.PERIODIC, InvocationKind.PREEMPTIVE):
        delay += scheme.faults.jitter
    return delay


def compute_bound(scheme: ImplementationScheme) -> int:
    """Worst-case busy time of one logical invocation, under faults.

    Replication serializes up to ``worst_case_rounds`` execution
    rounds before the voter's quorum is certain (axis (b));
    preemption stretches the response by the interference budget
    (axis (d)).  Fault-free this is exactly the wcet.
    """
    inv = scheme.invocation
    if scheme.faults.replicas > 1:
        return scheme.faults.worst_case_rounds() * inv.wcet
    return inv.worst_case_compute()


def pickup_bound(scheme: ImplementationScheme, channel: str) -> int:
    """Worst-case write-to-actuation latency, under jitter."""
    spec = scheme.output_spec(channel)
    pickup = spec.worst_case_pickup()
    if spec.polling_interval is not None:
        pickup += scheme.faults.jitter
    return pickup


def analytic_input_delay_bound(scheme: ImplementationScheme,
                               channel: str) -> int:
    """Lemma 1(1): worst-case Input-Delay ``Δ̄_mi`` for one channel."""
    return detection_bound(scheme, channel) + start_delay_bound(scheme)


def analytic_output_delay_bound(scheme: ImplementationScheme,
                                channel: str) -> int:
    """Lemma 1(2): worst-case Output-Delay ``Δ̄_oc`` for one channel."""
    return compute_bound(scheme) + pickup_bound(scheme, channel)


def relaxed_deadline(input_bound: int, output_bound: int,
                     internal_bound: int) -> int:
    """Lemma 2: ``Δ'_mc = Δ̄_mi + Δ̄_oc + Δ_io-internal``."""
    return input_bound + output_bound + internal_bound


# ----------------------------------------------------------------------
# Symbolic (model-checked) counterparts
# ----------------------------------------------------------------------
def internal_delay(pim: PIM, input_channel: str, output_channel: str,
                   *, max_states: int = 1_000_000,
                   jobs: int | None = None,
                   zone_backend: str | None = None,
                   abstraction: str | None = None) -> DelayBound:
    """``Δ_io-internal``: the PIM's own m→c supremum."""
    return max_response_delay(pim.network, input_channel, output_channel,
                              max_states=max_states, jobs=jobs,
                              zone_backend=zone_backend,
                              abstraction=abstraction)


def symbolic_input_delay(psm: PSM, channel: str, *,
                         max_states: int = 1_000_000) -> DelayBound:
    """Exact Input-Delay sup on the PSM: ``m_X!`` → ``i_X!``."""
    return max_response_delay(psm.network, channel, psm.io_name(channel),
                              max_states=max_states)


def symbolic_output_delay(psm: PSM, channel: str, *,
                          max_states: int = 1_000_000) -> DelayBound:
    """Exact Output-Delay sup on the PSM: ``o_Y!`` → ``c_Y!``."""
    return max_response_delay(psm.network, psm.io_name(channel), channel,
                              max_states=max_states)


def symbolic_mc_delay(psm: PSM, input_channel: str, output_channel: str,
                      *, max_states: int = 1_000_000) -> DelayBound:
    """Exact M-C sup on the PSM: ``m_X!`` → ``c_Y!``."""
    return max_response_delay(psm.network, input_channel, output_channel,
                              max_states=max_states)


@dataclass(frozen=True)
class DelayBounds:
    """Everything Section V derives for one (m, c) pair."""

    input_channel: str
    output_channel: str
    #: Lemma 1 analytic bounds (ms).
    input_bound: int
    output_bound: int
    #: PIM-internal processing bound (ms).
    internal_bound: int

    @property
    def relaxed(self) -> int:
        """Lemma 2's ``Δ'_mc``."""
        return relaxed_deadline(self.input_bound, self.output_bound,
                                self.internal_bound)

    def summary(self) -> str:
        return (f"Δ̄_mi={self.input_bound}ms + "
                f"Δ̄_oc={self.output_bound}ms + "
                f"Δ_internal={self.internal_bound}ms "
                f"→ Δ'_mc={self.relaxed}ms")


def bounds_from_internal(scheme: ImplementationScheme,
                         input_channel: str, output_channel: str,
                         internal: DelayBound) -> DelayBounds:
    """Assemble the Lemma-2 package from a *precomputed* internal sup.

    The single assembly point shared by
    :meth:`repro.core.framework.TimingVerificationFramework.derive_bounds`
    and the portfolio verifier (which caches the scheme-independent
    internal sup across jobs) — so the two pipelines cannot drift on
    how Lemma-1 terms combine.
    """
    if not internal.bounded:
        raise ValueError(
            f"internal {input_channel}→{output_channel} delay is "
            f"unbounded (Remark 1)")
    return DelayBounds(
        input_channel=input_channel,
        output_channel=output_channel,
        input_bound=analytic_input_delay_bound(scheme, input_channel),
        output_bound=analytic_output_delay_bound(scheme, output_channel),
        internal_bound=internal.sup,
    )


def derive_bounds(pim: PIM, scheme: ImplementationScheme,
                  input_channel: str, output_channel: str, *,
                  max_states: int = 1_000_000) -> DelayBounds:
    """Lemma 1 + the PIM's internal sup, packaged for Lemma 2."""
    internal = internal_delay(pim, input_channel, output_channel,
                              max_states=max_states)
    return bounds_from_internal(scheme, input_channel, output_channel,
                                internal)
