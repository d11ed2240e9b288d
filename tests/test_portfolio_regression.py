"""Portfolio scheduler regression pins (cf. test_mc_explorer_regression).

A fixed 2×2 scheme grid over the tiny PIM pins the *exact* per-job
exploration tallies the portfolio verifier produces today — the PIM
obligation sweep, the step-5/6 deadline sweep, the Lemma bounds and
the measured suprema.  Future performance work on the scheduler, the
shared pool or the zone engine must keep these rows bit-identical (or
update the pins in the same commit that proves why they changed), on
every backend and for every worker count.
"""

from __future__ import annotations

import pytest

from repro.apps.schemes import scheme_grid
from repro.mc.portfolio import PortfolioVerifier, portfolio_jobs
from repro.zones.backend import available_backends

from tests.conftest import build_tiny_pim, build_tiny_scheme

BACKENDS = available_backends()
DEADLINE = 10

#: name -> (relaxed Δ'_mc, deadline-sweep states, deadline-sweep
#: transitions, {sup name: (value, attained)}) — values produced by
#: the PR-3 implementation, identical on both backends and for every
#: jobs count.
PINS = {
    "tiny-scheme[buffer_size=1,period=4]":
        (19, 148, 170, {"Input-Delay": (6, True),
                        "Output-Delay": (3, True),
                        "M-C delay": (17, True)}),
    "tiny-scheme[buffer_size=1,period=5]":
        (20, 93, 111, {"Input-Delay": (7, True),
                       "Output-Delay": (3, True),
                       "M-C delay": (20, True)}),
    "tiny-scheme[buffer_size=2,period=4]":
        (19, 148, 170, {"Input-Delay": (6, True),
                        "Output-Delay": (3, True),
                        "M-C delay": (17, True)}),
    "tiny-scheme[buffer_size=2,period=5]":
        (20, 93, 111, {"Input-Delay": (7, True),
                       "Output-Delay": (3, True),
                       "M-C delay": (20, True)}),
}
#: Instrumented-PIM sweep size (shared obligation, scheme-independent).
PIM_SWEEP_VISITED = 2


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.mark.parametrize("jobs", (1, 4))
def test_portfolio_counts_pinned(backend, jobs):
    schemes = scheme_grid(build_tiny_scheme,
                          buffer_size=(1, 2), period=(4, 5))
    outcome = PortfolioVerifier(jobs=jobs, backend=backend).run(
        portfolio_jobs(
            build_tiny_pim(), schemes, input_channel="m_Req",
            output_channel="c_Ack", deadline_ms=DEADLINE,
            measure_suprema=True))
    assert outcome.all_ok
    assert [row.name for row in outcome] == list(PINS)
    for row in outcome:
        relaxed, states, transitions, sups = PINS[row.name]
        assert row.report.pim_result.visited == PIM_SWEEP_VISITED
        assert row.constraints_hold is True
        assert row.relaxed_deadline_ms == relaxed
        assert (row.states, row.transitions) == (states, transitions)
        assert row.original_holds is False  # P(10) fails on the PSM
        assert row.relaxed_holds is True    # P(Δ'_mc) holds — Thm 1
        assert row.guarantee
        assert {name: (bound.sup, bound.attained)
                for name, bound in row.sups.items()} == sups
        # Lemma-1 soundness on the pinned rows: measured ≤ verified.
        assert row.sups["Input-Delay"].sup <= \
            row.report.bounds.input_bound
        assert row.sups["Output-Delay"].sup <= \
            row.report.bounds.output_bound
        assert row.sups["M-C delay"].sup <= relaxed
