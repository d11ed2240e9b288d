"""Differential + property tests for the Extra⁺_LU abstraction.

The contract mirrors ``lazy_subsumption``'s: switching
``abstraction="extra_lu"`` must preserve every *verdict*, Lemma-2
bound, exact supremum and witness location that ``extra_m`` produces —
across both zone backends and worker counts — while the zone graphs
(states/transitions tallies) strictly shrink.  The shrunken tallies
get their own regression pins, exactly like the Extra_M seed pins in
``test_mc_explorer_regression.py``.

Property layer (hypothesis):

* the per-location LU maps derived by :mod:`repro.ta.bounds` are
  pointwise ≤ the global max-constant map ``Extra_M`` uses, and
* for any zone and any LU maps pointwise ≤ ``M``, the ``Extra⁺_LU``
  output zone includes the ``Extra_M`` output zone (the operator is
  genuinely coarser, never incomparable).
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.schemes import scheme_grid
from repro.core.framework import TimingVerificationFramework
from repro.core.transform import transform
from repro.mc.observers import check_bounded_response, max_response_delay
from repro.mc.parallel import EngineConfig
from repro.mc.portfolio import PortfolioVerifier, portfolio_jobs
from repro.mc.queries import (
    BoundedResponseQuery,
    ResponseSupQuery,
    StatsQuery,
    check_many,
    zone_graph_stats,
)
from repro.mc.state import CompiledNetwork
from repro.ta.bounds import (
    NO_BOUND,
    analyze_lu_bounds,
    available_abstractions,
    resolve_abstraction,
)
from repro.zones.backend import available_backends
from repro.zones.bounds import encode
from repro.zones.dbm import DBM

from tests.conftest import build_tiny_pim, build_tiny_scheme

BACKENDS = available_backends()
JOBS = (1, 4)
DEADLINE = 10
CHANNELS = dict(input_channel="m_Req", output_channel="c_Ack")

# ---------------------------------------------------------------------
# Pinned Extra⁺_LU tallies (Extra_M pins live in
# test_mc_explorer_regression.py: tiny PSM 68/85, REQ1 sweep 43).
# ---------------------------------------------------------------------
TINY_LU_STATES = 45
TINY_LU_TRANSITIONS = 57
TINY_LU_REQ1_VISITED = 41


def tiny_network():
    return transform(build_tiny_pim(), build_tiny_scheme()).network


def witness_locations(witness: str | None) -> str | None:
    """The ``(Auto.Loc, ...)`` prefix of a state description."""
    if witness is None:
        return None
    return witness.split(" [")[0].split(" {")[0]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


# =====================================================================
# Query-level differential matrix: backends × jobs × abstractions
# =====================================================================
@pytest.mark.parametrize("jobs", JOBS)
def test_query_matrix_verdicts_sups_and_witness_locations(backend, jobs):
    network = tiny_network()
    engine = dict(jobs=jobs, zone_backend=backend)
    m = check_bounded_response(network, "m_Req", "c_Ack", DEADLINE,
                               **engine)
    lu = check_bounded_response(network, "m_Req", "c_Ack", DEADLINE,
                                abstraction="extra_lu", **engine)
    assert m.holds == lu.holds is False
    assert witness_locations(m.counterexample) == \
        witness_locations(lu.counterexample)
    assert m.visited == 43  # the Extra_M seed pin stands untouched
    assert lu.visited == TINY_LU_REQ1_VISITED

    sup_m = max_response_delay(network, "m_Req", "c_Ack", **engine)
    sup_lu = max_response_delay(network, "m_Req", "c_Ack",
                                abstraction="extra_lu", **engine)
    assert (sup_m.bounded, sup_m.sup, sup_m.attained) == \
        (sup_lu.bounded, sup_lu.sup, sup_lu.attained)

    stats_m = zone_graph_stats(network, **engine)
    stats_lu = zone_graph_stats(network, abstraction="extra_lu",
                                **engine)
    assert (stats_m.states, stats_m.transitions) == (68, 85)
    assert (stats_lu.states, stats_lu.transitions) == \
        (TINY_LU_STATES, TINY_LU_TRANSITIONS)
    assert stats_lu.discrete_configurations == \
        stats_m.discrete_configurations


def test_sequential_engine_matches_sharded_lu(backend):
    network = tiny_network()
    seq = zone_graph_stats(network, zone_backend=backend,
                           abstraction="extra_lu")
    assert (seq.states, seq.transitions) == \
        (TINY_LU_STATES, TINY_LU_TRANSITIONS)


def test_process_mode_replays_lu_floors():
    """Reference-backend sharded workers must reproduce the
    sequential engine's LU extrapolation, query floors included."""
    network = tiny_network()
    seq = check_bounded_response(network, "m_Req", "c_Ack", DEADLINE,
                                 zone_backend="reference",
                                 abstraction="extra_lu")
    par = check_bounded_response(network, "m_Req", "c_Ack", DEADLINE,
                                 zone_backend="reference", jobs=2,
                                 abstraction="extra_lu")
    assert (seq.holds, seq.visited, seq.transitions) == \
        (par.holds, par.visited, par.transitions)
    assert seq.counterexample == par.counterexample


def test_check_many_parity_across_abstractions(backend):
    network = tiny_network()
    queries = [
        StatsQuery(),
        BoundedResponseQuery("m_Req", "c_Ack", DEADLINE),
        ResponseSupQuery("m_Req", "c_Ack"),
    ]
    m = check_many(network, queries, zone_backend=backend)
    lu = check_many(network, queries, zone_backend=backend,
                    abstraction="extra_lu")
    assert m.explorations == lu.explorations == 1
    assert m.results[1].holds == lu.results[1].holds
    assert (m.results[2].sup, m.results[2].attained) == \
        (lu.results[2].sup, lu.results[2].attained)
    assert lu.results[0].states < m.results[0].states


# =====================================================================
# Grid differential: whole verification pipelines over ≥ 5 schemes
# =====================================================================
def grid_schemes():
    """Six tiny schemes; period-3 columns are the blow-up corners
    (fastest invocation → most interleavings per request)."""
    return scheme_grid(build_tiny_scheme,
                       buffer_size=(1, 3), period=(3, 4, 5))


def test_grid_portfolio_rows_identical_under_lu():
    schemes = grid_schemes()
    base = PortfolioVerifier(jobs=4).run(portfolio_jobs(
        build_tiny_pim(), schemes, deadline_ms=DEADLINE,
        measure_suprema=True, **CHANNELS))
    lu = PortfolioVerifier(jobs=4, abstraction="extra_lu").run(
        portfolio_jobs(build_tiny_pim(), schemes,
                       deadline_ms=DEADLINE, measure_suprema=True,
                       **CHANNELS))
    assert base.all_ok and lu.all_ok
    for a, b in zip(base, lu):
        assert a.name == b.name
        assert a.report.bounds == b.report.bounds
        assert a.report.pim_result.holds == b.report.pim_result.holds
        assert a.constraints_hold == b.constraints_hold
        assert a.original_holds == b.original_holds
        assert a.relaxed_holds == b.relaxed_holds
        assert a.guarantee == b.guarantee
        assert {k: (v.bounded, v.sup, v.attained)
                for k, v in a.sups.items()} == \
            {k: (v.bounded, v.sup, v.attained)
             for k, v in b.sups.items()}
        assert witness_locations(
            a.report.psm_original_result.counterexample) == \
            witness_locations(
                b.report.psm_original_result.counterexample)
        assert b.states <= a.states
    # The abstraction must actually bite somewhere on the grid.
    assert sum(b.states for b in lu) < sum(a.states for a in base)


def test_framework_pipeline_identical_under_lu():
    pim, scheme = build_tiny_pim(), build_tiny_scheme()
    kwargs = dict(deadline_ms=DEADLINE, measure_suprema=True,
                  include_progress=True, **CHANNELS)
    base = TimingVerificationFramework().verify(pim, scheme, **kwargs)
    lu = TimingVerificationFramework(
        abstraction="extra_lu").verify(pim, scheme, **kwargs)
    assert base.bounds == lu.bounds
    assert base.constraints.all_hold == lu.constraints.all_hold
    assert base.psm_original_result.holds == \
        lu.psm_original_result.holds
    assert base.psm_relaxed_result.holds == lu.psm_relaxed_result.holds
    assert base.implementation_guarantee == lu.implementation_guarantee
    assert {k: str(v) for k, v in base.symbolic.items()} == \
        {k: str(v) for k, v in lu.symbolic.items()}
    assert lu.psm_relaxed_result.visited < \
        base.psm_relaxed_result.visited


# =====================================================================
# Case-study pins (numpy; the paper's S1 PSM and one blow-up corner)
# =====================================================================
CASE_M = (11902, 13500)
CASE_LU = (8908, 10246)
CASE_DEADLINE_M = 17415
CASE_DEADLINE_LU = 14421
CORNER_M = (39259, 43654)
CORNER_LU = (32011, 35853)


@pytest.fixture(scope="module")
def case_study_psm():
    pytest.importorskip("numpy")
    from repro.apps.infusion import build_infusion_pim
    from repro.apps.schemes import case_study_scheme
    return transform(build_infusion_pim(), case_study_scheme()).network


@pytest.fixture(scope="module")
def corner_psm():
    """The period-50/poll-190 blow-up corner of the 16-scheme grid."""
    pytest.importorskip("numpy")
    from repro.apps.infusion import build_infusion_pim
    from repro.apps.schemes import case_study_scheme
    return transform(build_infusion_pim(), case_study_scheme(
        buffer_size=2, period=50, bolus_poll=190)).network


def test_case_study_lu_state_counts_pinned(case_study_psm):
    m = zone_graph_stats(case_study_psm, zone_backend="numpy", jobs=1)
    lu = zone_graph_stats(case_study_psm, zone_backend="numpy", jobs=1,
                          abstraction="extra_lu")
    assert (m.states, m.transitions) == CASE_M
    assert (lu.states, lu.transitions) == CASE_LU
    assert lu.states < m.states


def test_case_study_deadline_sweep_parity_pinned(case_study_psm):
    m = check_bounded_response(case_study_psm, "m_BolusReq",
                               "c_StartInfusion", 1430,
                               zone_backend="numpy", jobs=1)
    lu = check_bounded_response(case_study_psm, "m_BolusReq",
                                "c_StartInfusion", 1430,
                                zone_backend="numpy", jobs=1,
                                abstraction="extra_lu")
    assert m.holds and lu.holds  # Table I: P(Δ'_mc=1430) holds
    assert m.visited == CASE_DEADLINE_M
    assert lu.visited == CASE_DEADLINE_LU


def test_blow_up_corner_lu_state_counts_pinned(corner_psm):
    m = zone_graph_stats(corner_psm, zone_backend="numpy", jobs=1)
    lu = zone_graph_stats(corner_psm, zone_backend="numpy", jobs=1,
                          abstraction="extra_lu")
    assert (m.states, m.transitions) == CORNER_M
    assert (lu.states, lu.transitions) == CORNER_LU
    assert lu.states < m.states


# =====================================================================
# Property layer
# =====================================================================
@settings(max_examples=15, deadline=None)
@given(buffer_size=st.integers(1, 3), period=st.integers(3, 6),
       wcet=st.integers(0, 2))
def test_lu_maps_pointwise_below_max_constants(buffer_size, period,
                                               wcet):
    network = transform(
        build_tiny_pim(),
        build_tiny_scheme(buffer_size=buffer_size, period=period,
                          wcet=wcet)).network
    compiled = CompiledNetwork(network)
    lower, upper = analyze_lu_bounds(network).global_bounds()
    for x in range(compiled.n_clocks):
        assert lower[x] <= compiled.max_constants[x]
        assert upper[x] <= compiled.max_constants[x]
    # Per-location maps are below the global map by construction.
    lu = analyze_lu_bounds(network)
    for a in range(len(network.automata)):
        for per_loc in lu.lower[a]:
            for x, value in enumerate(per_loc):
                assert value <= lower[x]
        for per_loc in lu.upper[a]:
            for x, value in enumerate(per_loc):
                assert value <= upper[x]


_ZONE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("constrain"), st.integers(0, 3),
                  st.integers(0, 3), st.integers(-8, 8),
                  st.booleans()).filter(lambda t: t[1] != t[2]),
        st.tuples(st.just("reset"), st.integers(1, 3),
                  st.integers(0, 6)),
        st.tuples(st.just("free"), st.integers(1, 3)),
        st.sampled_from([("up",)]),
    ),
    min_size=0, max_size=12)


def _build_zone(ops) -> DBM:
    zone = DBM.zero(4)
    for op in ops:
        if op[0] == "constrain":
            zone.constrain(op[1], op[2], encode(op[3], op[4]))
        elif op[0] == "reset":
            zone.reset(op[1], op[2])
        elif op[0] == "free":
            zone.free(op[1])
        else:
            zone.up()
    return zone


@settings(max_examples=150, deadline=None)
@given(ops=_ZONE_OPS,
       max_consts=st.lists(st.integers(0, 8), min_size=3, max_size=3),
       lowers=st.lists(st.integers(-1, 8), min_size=3, max_size=3),
       uppers=st.lists(st.integers(-1, 8), min_size=3, max_size=3))
def test_extra_lu_output_includes_extra_m_output(ops, max_consts,
                                                 lowers, uppers):
    """For any LU maps pointwise ≤ M, Extra⁺_LU ⊇ Extra_M."""
    zone = _build_zone(ops)
    if zone.is_empty():
        return
    m_map = [0, *max_consts]
    lower = [0] + [min(lo, mc) for lo, mc in zip(lowers, max_consts)]
    upper = [0] + [min(up, mc) for up, mc in zip(uppers, max_consts)]
    extra_m = zone.copy().extrapolate_max(m_map)
    extra_lu = zone.copy().extrapolate_lu(lower, upper)
    assert extra_lu.includes(extra_m)
    # Both only ever widen.
    assert extra_m.includes(zone)
    assert extra_lu.includes(zone)


def test_extra_lu_equals_extra_m_when_maps_equal_is_coarser_plus():
    """With L = U = M, Extra⁺_LU is Extra⁺_M — at least as coarse as
    Extra_M (the ⁺ rules may widen strictly more)."""
    zone = DBM.zero(3)
    zone.constrain(1, 0, encode(5, True))
    zone.constrain(0, 1, encode(-5, True))  # x1 == 5, beyond M = 2
    zone.up()
    m_map = [0, 2, 2]
    extra_m = zone.copy().extrapolate_max(m_map)
    extra_lu = zone.copy().extrapolate_lu(m_map, m_map)
    assert extra_lu.includes(extra_m)


# =====================================================================
# Selection plumbing (mirrors the zone-backend registry tests)
# =====================================================================
class TestAbstractionSelection:
    def test_default_is_extra_m(self):
        assert resolve_abstraction(None).name == "extra_m"
        assert not resolve_abstraction(None).is_lu

    def test_aliases(self):
        assert resolve_abstraction("lu").is_lu
        assert resolve_abstraction("extra_lu_plus").is_lu
        assert resolve_abstraction("m").name == "extra_m"
        assert available_abstractions() == ("extra_m", "extra_lu")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown abstraction"):
            resolve_abstraction("extra_xyz")
        with pytest.raises(ValueError, match="unknown abstraction"):
            EngineConfig.resolve(abstraction="nope")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_ABSTRACTION", "extra_lu")
        assert EngineConfig.resolve().abstraction == "extra_lu"
        # Below the resolver, None is the default — never the env.
        assert resolve_abstraction(None).name == "extra_m"

    def test_cli_flag_exists(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["--abstraction", "extra_lu", "scheme"])
        assert args.abstraction == "extra_lu"

    def test_deadlock_query_pins_extra_m(self):
        """Timelock detection reads zone upper bounds — it runs on
        Extra_M and refuses an LU request."""
        from repro.mc.deadlock import find_deadlocks
        assert find_deadlocks(tiny_network()).deadlock_free
        with pytest.raises(ValueError, match="extra_m"):
            find_deadlocks(tiny_network(), abstraction="extra_lu")


def test_no_bound_sentinel_widens_everything():
    """A clock with NO_BOUND on both sides keeps no constraints at
    all after extrapolation (beyond non-negativity)."""
    zone = DBM.universal(3)
    zone.constrain(1, 0, encode(4, True))   # x1 <= 4
    zone.constrain(0, 1, encode(-4, True))  # x1 >= 4
    zone.constrain(2, 0, encode(4, True))   # x2 <= 4
    assert not zone.is_empty()
    lower = [0, NO_BOUND, 4]
    upper = [0, NO_BOUND, 4]
    zone.extrapolate_lu(lower, upper)
    from repro.zones.bounds import INF
    assert zone.get(1, 0) == INF          # upper bound gone
    assert zone.get(0, 1) == encode(1, False)  # x1 > -1: no lower bound
    assert zone.get(2, 0) == encode(4, True)   # bounded clock kept
