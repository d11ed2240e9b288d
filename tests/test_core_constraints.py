"""Tests for the four Section-V constraints: each must pass on a sane
scheme and fail on a scheme engineered to violate exactly it."""

import pytest

from repro.core.constraints import (
    check_all_constraints,
    check_constraint1,
    check_constraint2,
    check_constraint3,
    check_constraint4,
    check_progress,
)
from repro.core.pim import PIM
from repro.core.scheme import ReadMechanism, ReadPolicy
from repro.core.transform import transform
from repro.ta.builder import NetworkBuilder

from tests.conftest import build_tiny_pim, build_tiny_scheme



def double_press_pim(gap: int = 2) -> PIM:
    """Environment that presses twice, ``gap`` apart, without awaiting
    the ack — the stressor for Constraints 1, 2 and 4."""
    net = NetworkBuilder("double", constants={"PRIME": 4,
                                              "DEADLINE": 10})
    net.channel("m_Req")
    net.channel("c_Ack")
    m = net.automaton("M", clocks=["x"])
    m.location("Idle", initial=True)
    m.location("Busy", invariant="x <= DEADLINE")
    m.edge("Idle", "Busy", sync="m_Req?", update="x = 0")
    m.edge("Busy", "Idle", guard="x >= PRIME", sync="c_Ack!",
           update="x = 0")
    env = net.automaton("ENV", clocks=["ex"])
    env.location("Go", initial=True)
    env.location("Go2")
    env.location("Quiet")
    env.edge("Go", "Go2", guard=f"ex >= {gap}", sync="m_Req!",
             update="ex = 0")
    env.edge("Go2", "Quiet", guard=f"ex >= {gap}", sync="m_Req!",
             update="ex = 0")
    env.edge("Quiet", "Quiet", sync="c_Ack?")
    return PIM(network=net.build(), controller="M", environment="ENV")


@pytest.fixture(scope="module")
def good_psm():
    return transform(build_tiny_pim(), build_tiny_scheme())


class TestHappyPath:
    def test_all_constraints_hold(self, good_psm):
        report = check_all_constraints(good_psm)
        assert report.all_hold, report.summary()
        assert len(report.results) == 4
        assert "bounded" in report.summary()

    def test_progress_holds(self, good_psm):
        assert check_progress(good_psm).holds

    def test_individual_checks_agree_with_single_pass(self, good_psm):
        assert check_constraint1(good_psm).holds
        assert check_constraint2(good_psm).holds
        assert check_constraint3(good_psm).holds
        assert check_constraint4(good_psm).holds

    @pytest.mark.parametrize("abstraction", ("extra_m", "extra_lu"))
    def test_engine_knobs_reach_every_check(self, good_psm, abstraction):
        from repro.zones.backend import available_backends

        details = set()
        for backend in available_backends():
            report = check_all_constraints(
                good_psm, zone_backend=backend, jobs=1,
                abstraction=abstraction)
            singles = [check(good_psm, zone_backend=backend,
                             abstraction=abstraction)
                       for check in (check_constraint1, check_constraint2,
                                     check_constraint3, check_constraint4)]
            assert [r.detail for r in report.results] == \
                [r.detail for r in singles]
            details.add(tuple(r.detail for r in singles))
        assert len(details) == 1  # bit-identical on every backend


class TestConstraint1Violation:
    def test_slow_polling_misses_signals(self):
        # Two presses 2ms apart against a 12ms poll: the second press
        # overwrites the latch before the first sample — a miss.
        pim = double_press_pim(gap=2)
        scheme = build_tiny_scheme(
            input_mechanism=ReadMechanism.POLLING, polling_interval=12)
        psm = transform(pim, scheme)
        result = check_constraint1(psm)
        assert not result.holds

    def test_fast_polling_catches_both(self):
        # Presses 20ms apart against a 4ms poll: both sampled.
        pim = double_press_pim(gap=20)
        scheme = build_tiny_scheme(
            input_mechanism=ReadMechanism.POLLING, polling_interval=4)
        psm = transform(pim, scheme)
        assert check_constraint1(psm).holds

    def test_analytic_interarrival_check(self, good_psm):
        # Device worst case (2ms) vs claimed min inter-arrival 1ms.
        result = check_constraint1(good_psm, min_interarrival_ms=1)
        assert not result.holds
        assert "slower" in result.detail
        # Generous inter-arrival passes.
        assert check_constraint1(good_psm,
                                 min_interarrival_ms=1000).holds

    def test_single_pass_analytic_half(self):
        psm = transform(build_tiny_pim(), build_tiny_scheme())
        report = check_all_constraints(psm, min_interarrival_ms=1)
        assert not report.results[0].holds


class TestConstraint2Violation:
    def test_tiny_buffer_with_slow_invocation(self):
        # Requests every ~15ms; invocation drains only every 50ms with
        # a buffer of one: the second request of a cycle overflows.
        pim = build_tiny_pim(think=2, deadline=30)
        scheme = build_tiny_scheme(buffer_size=1, period=50, wcet=1)
        psm = transform(pim, scheme)
        result = check_constraint2(psm)
        # The env waits for the ack before re-pressing, so a single
        # outstanding request cannot overflow even a size-1 buffer —
        # constraint holds here...
        assert result.holds

    def test_overflow_with_bursty_environment(self):
        # ...but an environment that can press twice without awaiting
        # the ack does overflow a size-1 buffer.
        pim = double_press_pim(gap=2)
        scheme = build_tiny_scheme(buffer_size=1, period=50)
        psm = transform(pim, scheme)
        assert not check_constraint2(psm).holds

    def test_violation_names_flags_with_witness_and_trace(self):
        pim = double_press_pim(gap=2)
        scheme = build_tiny_scheme(buffer_size=1, period=50)
        psm = transform(pim, scheme)
        result = check_all_constraints(psm).results[1]
        flag = psm.input_vars["m_Req"].overflow
        assert not result.holds
        assert f"flag(s) ['{flag}'] reachable (e.g. " in result.detail
        assert result.counterexample  # the trace to the witness


class TestConstraint3Violation:
    def test_output_burst_overflows(self):
        # M emits three outputs back-to-back per request into a
        # size-1 output buffer; the write stage overflows.
        net = NetworkBuilder("chatty")
        net.channel("m_Req")
        net.channel("c_Ack")
        m = net.automaton("M")
        m.location("Idle", initial=True)
        m.location("S1")
        m.location("S2")
        m.location("S3")
        m.edge("Idle", "S1", sync="m_Req?")
        m.edge("S1", "S2", sync="c_Ack!")
        m.edge("S2", "S3", sync="c_Ack!")
        m.edge("S3", "Idle", sync="c_Ack!")
        env = net.automaton("ENV", clocks=["ex"])
        env.location("Go", initial=True)
        env.location("Wait")
        env.edge("Go", "Wait", guard="ex >= 10", sync="m_Req!",
                 update="ex = 0")
        env.edge("Wait", "Go", sync="c_Ack?", update="ex = 0")
        env.edge("Wait", "Wait", sync="c_Ack?")
        pim = PIM(network=net.build(), controller="M",
                  environment="ENV")
        scheme = build_tiny_scheme(buffer_size=1)
        psm = transform(pim, scheme)
        result = check_constraint3(psm)
        assert not result.holds


class TestConstraint4Violation:
    def test_read_all_drops_unconsumable_second_request(self):
        # Environment presses twice before the ack; M consumes one
        # (Idle→Busy) — the second pops under read-all while MIO is
        # Busy and is dropped by the code.
        pim = double_press_pim(gap=1)
        psm = transform(pim, build_tiny_scheme(buffer_size=3))
        result = check_constraint4(psm)
        assert not result.holds

    def test_case_report_summary_mentions_remark1(self):
        pim = double_press_pim(gap=2)
        scheme = build_tiny_scheme(
            input_mechanism=ReadMechanism.POLLING, polling_interval=12)
        psm = transform(pim, scheme)
        report = check_all_constraints(psm)
        assert not report.all_hold
        assert "Remark 1" in report.summary()
