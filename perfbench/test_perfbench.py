"""Tests of the benchmark itself (not of the framework).

    python3 -m pytest perfbench/test_perfbench.py -q

They check that a wrong answer is counted as a failure, that the
tracer's counts repeat exactly, that the statistics helpers follow
their definitions, that times are scaled by the probes during and
around them with the probes' own time taken out, and that mismatched
configurations are refused.
"""

from __future__ import annotations

import dataclasses
import json
import random
import signal
import time
from types import SimpleNamespace

import pytest

from perfbench import compare, models, speed, stats, workloads
from perfbench.trace import Tracer
from perfbench.workloads import (
    Measured,
    SweepSmallSchemes,
    check_monitor_verdicts,
    check_verify_report,
)


def table1_report(**overrides):
    """A stand-in VerificationReport with the paper's Table-I answers."""
    def bound(sup):
        return SimpleNamespace(bounded=True, sup=sup, attained=True,
                               visited=1)

    fields = dict(
        pim_holds=True, constraints_hold=True, relaxed_deadline_ms=1430,
        psm_original_result=SimpleNamespace(holds=False),
        psm_relaxed_result=SimpleNamespace(holds=True),
        symbolic={"Input-Delay": bound(480), "Output-Delay": bound(440),
                  "M-C delay": bound(1420)})
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_table1_report_passes():
    assert check_verify_report(table1_report()) == []


@pytest.mark.parametrize("corruption", [
    {"pim_holds": False},
    {"constraints_hold": False},
    {"relaxed_deadline_ms": 1420},
    {"psm_original_result": SimpleNamespace(holds=True)},
    {"psm_relaxed_result": SimpleNamespace(holds=False)},
    {"symbolic": {}},
])
def test_corrupted_verify_report_fails(corruption):
    assert check_verify_report(table1_report(**corruption))


def test_monitor_check_wants_deviation_on_the_perturbed_channel():
    ok = {"session": 0, "conforming": True, "deviation": None}
    late = {"session": 1, "conforming": False,
            "deviation": {"channel": "c_Ack"}}
    assert check_monitor_verdicts([ok, late], [None, "c_Ack"]) == []
    assert check_monitor_verdicts([ok, late], [None, "c_Other"])
    assert check_monitor_verdicts([late, ok], [None, "c_Ack"])


def test_corrupted_sweep_verdict_raises_failed_frac(monkeypatch):
    """A sup(M-C) above the verified bound counts as a failed op."""
    from repro.mc.portfolio import PortfolioResult

    def run():
        workload = SweepSmallSchemes(seed=3)
        workload.GRIDS = 2
        workload.setup()
        measured = Measured()
        workloads.closed_loop(workload, 0.3, None, measured)
        return measured

    clean = run()
    assert clean.attempted >= 1 and clean.failed_frac == 0.0

    true_sups = PortfolioResult.sups.fget

    def corrupted(self):
        sups = dict(true_sups(self))
        if "M-C delay" in sups:
            sups["M-C delay"] = dataclasses.replace(
                sups["M-C delay"], sup=self.relaxed_deadline_ms + 1)
        return sups

    monkeypatch.setattr(PortfolioResult, "sups", property(corrupted))
    assert run().failed_frac > 0.0


def test_empty_daemon_reply_is_a_wrong_answer():
    """A request answered with ``done`` but no rows fails the check."""
    from repro.mc.portfolio import PortfolioVerifier, portfolio_jobs

    from perfbench.serve import ServeDesignSessions

    pim_params, scheme_params = models.GridDrawer(
        random.Random(5)).grid(bases=1)
    jobs = portfolio_jobs(
        models.build_pim(**pim_params),
        [models.build_scheme(**p) for p in scheme_params],
        input_channel=models.INPUT, output_channel=models.OUTPUT,
        deadline_ms=pim_params["deadline"], measure_suprema=True)
    workload = ServeDesignSessions(seed=1, seconds=1.0)
    workload.requests = [("portfolio", 0.0, {}, jobs),
                         ("monitor", 0.0, {}, [None, models.OUTPUT])]
    verdicts = [{"session": 0, "conforming": True, "deviation": None},
                {"session": 1, "conforming": False,
                 "deviation": {"channel": models.OUTPUT}}]
    right = [[(i, r.row(), "explored") for i, r in
              enumerate(PortfolioVerifier(jobs=1).run(jobs))],
             [(i, v, "monitor") for i, v in enumerate(verdicts)]]
    assert workload._check(right, [None, None]) == {}
    wrong = workload._check([[], []], [None, None])
    assert sorted(wrong) == [0, 1]
    # An error reply is failed already and not checked again.
    assert workload._check([[], []], ["refused", "refused"]) == {}


class _Alternating:
    """A workload that records whether each operation was traced."""

    def __init__(self, tracer):
        self.tracer, self.seen = tracer, []

    def op(self, index):
        self.seen.append((index, self.tracer.installed))
        return 1, []


class _FakeTracer:
    installed = False
    op = None

    def install(self):
        self.installed = True

    def uninstall(self):
        self.installed = False


def test_traced_and_untraced_operations_alternate():
    tracer = _FakeTracer()
    workload = _Alternating(tracer)
    measured = Measured()
    workloads.closed_loop(workload, 10.0, tracer, measured,
                          traced_ops=3)
    assert workload.seen == [(0, False), (0, True), (1, True),
                             (1, False), (2, False), (2, True)]
    assert len(measured.durations) == len(measured.traced_durations) == 3
    # A traced run takes no probes: its times stay raw.
    assert measured.scaled == measured.durations and not measured.probes
    assert not tracer.installed


def test_traced_counts_repeat_exactly():
    from repro.api import Session

    pim_params, scheme_params = models.GridDrawer(random.Random(7)).grid()
    pim = models.build_pim(**pim_params)
    schemes = [models.build_scheme(**p) for p in scheme_params]

    def traced_counts():
        tracer = Tracer()
        tracer.install()
        try:
            Session().portfolio(pim, schemes, input_channel=models.INPUT,
                                output_channel=models.OUTPUT,
                                deadline_ms=pim_params["deadline"],
                                reuse=True, measure_suprema=True)
        finally:
            tracer.uninstall()
        return tracer

    first, second = traced_counts(), traced_counts()
    # Only the native kernel's module may be absent (unbuilt checkout).
    assert [m for m in first.missing if ".dbm_native." not in m] == []
    assert first.counters["mc.states"] > 0
    assert first.counters["portfolio.schemes"] == len(schemes)
    assert first.counters == second.counters
    assert first.calls == second.calls
    # Uninstall restored the original methods.
    from repro.mc.explorer import ZoneGraphExplorer

    assert not hasattr(ZoneGraphExplorer.explore, "__wrapped__")


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = stats.tail(list(range(100)))
    assert (value, percentile, beyond) == (89, 90.0, 10)
    assert stats.tail([3, 1, 2]) == (3, 100.0, 0)
    assert stats.tail(list(range(20)))[1] == 100.0


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0.5


def test_times_are_scaled_by_the_probes_around_them():
    track = speed.SpeedTrack()
    track.times, track.values = [0.0, 1.0, 2.0], [
        speed.REFERENCE_S, 2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S]
    # Between the probes at 0 and 1: their mean is 1.5x the reference.
    assert track.scale(0.2, 0.8) == pytest.approx(1 / 1.5)
    # The probe during the operation and the nearest on each side.
    assert track.scale(0.5, 1.5) == pytest.approx(3 / 7)
    measured = Measured()
    measured.add(1.2, 1.8)
    measured.scale(track)
    assert measured.durations == [pytest.approx(0.6)]
    assert measured.scaled == [pytest.approx(0.6 / 3)]
    # A probe that interrupted an operation is not part of its time.
    track.spans = [(1.4, 1.5)]
    measured.scale(track)
    assert measured.durations == [pytest.approx(0.5)]
    # Without probes (a traced run) the times stay raw.
    measured.scale(None)
    assert measured.scaled == measured.durations


class _Busy:
    """A workload whose one operation spins for 0.6 s of wall time."""

    def op(self, index):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.6:
            pass
        return 1, []


def test_long_operations_are_sampled_inside():
    before = signal.getsignal(signal.SIGALRM)
    measured = Measured()
    workloads.closed_loop(_Busy(), 0.1, None, measured)
    assert len(measured.durations) == 1
    # Two bracketing probes and at least two taken during the spin.
    assert len(measured.probes) >= 4
    # The probes that interrupted the spin are not counted in its time.
    assert measured.durations[0] < 0.6
    assert signal.getsignal(signal.SIGALRM) == before


def test_compare_refuses_different_backends(tmp_path, capsys):
    spec = {"end_to_end": [{"name": "op_p50_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    for side, backend in (("base", "native"), ("new", "numpy")):
        directory = tmp_path / side
        directory.mkdir()
        (directory / "w-seed1-trace0.json").write_text(json.dumps({
            "workload": "w", "config": {"resolved_backend": backend},
            "metrics": {"op_p50_s": {"value": 1.0, "unit": "s"}}}))
    assert compare.compare(tmp_path / "base", tmp_path / "new",
                           spec) == 2
    assert "REFUSED" in capsys.readouterr().out
