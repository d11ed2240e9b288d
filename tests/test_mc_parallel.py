"""Differential tests: sharded parallel exploration ≡ sequential.

The satellite contract of the sharding PR: for every benchmark model
(the tiny PSM and the case-study PSM), sharded exploration with
``jobs ∈ {1, 2, 4}`` on both zone backends yields **bit-identical**
states, transitions, traces and sup-clock results vs the sequential
:class:`ZoneGraphExplorer` — whether the thread workers expand
through the batched kernels (numpy) or scalarly (reference).

``lazy_subsumption`` is the one documented divergence: the sharded
wave structure prunes slightly less than the sequential lazy
explorer, so only the reduced zone graph and the verdicts are pinned
there, not the tallies.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.transform import transform
from repro.mc.explorer import ExplorationLimit, ZoneGraphExplorer
from repro.mc.observers import check_bounded_response, max_response_delay
from repro.mc.parallel import (
    EngineConfig,
    ShardedZoneGraphExplorer,
    make_explorer,
    resolve_jobs,
)
from repro.mc.queries import zone_graph_stats
from repro.mc.reachability import StateFormula, check_reachable
from repro.ta.model import ModelError
from repro.zones.backend import available_backends

from tests.conftest import build_tiny_pim, build_tiny_scheme

BACKENDS = available_backends()
JOBS = (1, 2, 4)


@pytest.fixture(scope="module")
def tiny_network():
    return transform(build_tiny_pim(), build_tiny_scheme()).network


def _state_sequence(explorer):
    """Full visit order as (discrete key, frozen zone) pairs."""
    out = []
    explorer.explore(visit=lambda s: out.append(
        (s.key(), s.zone.frozen())))
    return out


# ----------------------------------------------------------------------
# Tiny PSM: the full jobs × backend matrix, bit-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jobs", JOBS)
class TestTinyMatrix:
    def test_state_sequence_identical(self, tiny_network, backend,
                                      jobs):
        expected = _state_sequence(
            ZoneGraphExplorer(tiny_network, zone_backend=backend))
        actual = _state_sequence(ShardedZoneGraphExplorer(
            tiny_network, jobs=jobs, zone_backend=backend))
        assert actual == expected

    def test_counts_identical(self, tiny_network, backend, jobs):
        sequential = ZoneGraphExplorer(
            tiny_network, zone_backend=backend).explore()
        sharded = ShardedZoneGraphExplorer(
            tiny_network, jobs=jobs, zone_backend=backend).explore()
        assert (sharded.visited, sharded.transitions, sharded.complete) \
            == (sequential.visited, sequential.transitions, True)

    def test_bounded_response_trace_identical(self, tiny_network,
                                              backend, jobs):
        sequential = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", 3, zone_backend=backend)
        sharded = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", 3, zone_backend=backend,
            jobs=jobs)
        assert sharded.holds == sequential.holds
        assert sharded.visited == sequential.visited
        assert sharded.transitions == sequential.transitions
        assert sharded.counterexample == sequential.counterexample
        assert sharded.trace == sequential.trace

    def test_sup_clock_identical(self, tiny_network, backend, jobs):
        sequential = max_response_delay(tiny_network, "m_Req", "c_Ack",
                                        zone_backend=backend)
        sharded = max_response_delay(tiny_network, "m_Req", "c_Ack",
                                     zone_backend=backend, jobs=jobs)
        assert (sharded.bounded, sharded.sup, sharded.attained,
                sharded.visited) == \
            (sequential.bounded, sequential.sup, sequential.attained,
             sequential.visited)

    def test_early_stop_identical(self, tiny_network, backend, jobs):
        formula = StateFormula(data="cnt_i_Req == 1")
        sequential = check_reachable(tiny_network, formula,
                                     zone_backend=backend)
        sharded = check_reachable(tiny_network, formula,
                                  zone_backend=backend, jobs=jobs)
        assert sharded.reachable and sequential.reachable
        assert sharded.visited == sequential.visited
        assert sharded.witness == sequential.witness
        assert sharded.trace == sequential.trace


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_states_limit_matches(tiny_network, backend):
    with pytest.raises(ExplorationLimit):
        ZoneGraphExplorer(tiny_network, zone_backend=backend,
                          max_states=10).explore()
    with pytest.raises(ExplorationLimit):
        ShardedZoneGraphExplorer(tiny_network, jobs=2,
                                 zone_backend=backend,
                                 max_states=10).explore()


@pytest.mark.parametrize("backend", BACKENDS)
def test_forced_worker_modes_agree(tiny_network, backend):
    """Thread workers agree with the sequential engine on every
    backend (batched kernels on numpy, scalar expansion on
    reference)."""
    expected = _state_sequence(
        ZoneGraphExplorer(tiny_network, zone_backend=backend))
    explorer = ShardedZoneGraphExplorer(
        tiny_network, jobs=2, zone_backend=backend)
    assert _state_sequence(explorer) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_subsumption_reduced_graph_preserved(tiny_network,
                                                  backend):
    def reduced_graph(explorer):
        per_key: dict = {}
        explorer.explore(visit=lambda s: per_key.setdefault(
            s.key(), []).append(s.zone))
        graph = set()
        for key, zones in per_key.items():
            for zone in zones:
                if any(other is not zone and other.includes(zone)
                       and not zone.includes(other) for other in zones):
                    continue
                graph.add((key, zone.frozen()))
        return graph

    eager = reduced_graph(ZoneGraphExplorer(
        tiny_network, zone_backend=backend))
    lazy = reduced_graph(ShardedZoneGraphExplorer(
        tiny_network, jobs=2, zone_backend=backend,
        lazy_subsumption=True))
    assert lazy == eager


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jobs", (1, 2))
def test_deferred_range_error_raised(backend, jobs):
    from repro.ta.builder import NetworkBuilder

    net = NetworkBuilder("n")
    net.int_var("v", 0, 0, 2)
    a = net.automaton("A")
    a.location("L", initial=True)
    a.loop("L", update="v = v + 1")
    network = net.build()
    with pytest.raises(ModelError, match="outside"):
        ShardedZoneGraphExplorer(network, jobs=jobs,
                                 zone_backend=backend).explore()


# ----------------------------------------------------------------------
# jobs resolution / factory
# ----------------------------------------------------------------------
class TestJobsResolution:
    def test_default_is_sequential(self):
        assert resolve_jobs(None) is None

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert EngineConfig.resolve().jobs == 4
        # Below the resolver, None is the sequential default.
        assert resolve_jobs(None) is None

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            EngineConfig.resolve(jobs=-1)

    def test_factory_picks_engine(self, tiny_network):
        assert isinstance(make_explorer(tiny_network),
                          ZoneGraphExplorer)
        assert isinstance(make_explorer(tiny_network, jobs=2),
                          ShardedZoneGraphExplorer)

    def test_auto_mode_by_backend(self, tiny_network):
        """Every backend expands on threads — the reference backend
        too, so a sweep started from a daemon thread never forks."""
        import multiprocessing

        if "numpy" in BACKENDS:
            assert ShardedZoneGraphExplorer(
                tiny_network, jobs=2, zone_backend="numpy").batched
        explorer = ShardedZoneGraphExplorer(
            tiny_network, jobs=2, zone_backend="reference")
        assert not explorer.batched
        done: list = []
        worker = threading.Thread(
            target=lambda: done.append(explorer.explore()), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert done and done[0].complete
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Case-study PSM: the satellite's full differential matrix
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def case_study_network():
    from repro.apps.infusion import build_infusion_pim
    from repro.apps.schemes import case_study_scheme

    return transform(build_infusion_pim(), case_study_scheme()).network


@pytest.fixture(scope="module")
def case_study_sequential(case_study_network):
    return {backend: zone_graph_stats(case_study_network,
                                      zone_backend=backend)
            for backend in BACKENDS}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jobs", JOBS)
def test_case_study_counts_identical(case_study_network,
                                     case_study_sequential, backend,
                                     jobs):
    sequential = case_study_sequential[backend]
    sharded = zone_graph_stats(case_study_network,
                               zone_backend=backend, jobs=jobs)
    assert (sharded.states, sharded.transitions,
            sharded.discrete_configurations) == \
        (sequential.states, sequential.transitions,
         sequential.discrete_configurations)


def test_case_study_sup_identical(case_study_network):
    """Sup-clock parity on the big model (numpy, max jobs)."""
    backend = BACKENDS[-1]
    sequential = max_response_delay(
        case_study_network, "m_BolusReq", "c_StartInfusion",
        zone_backend=backend)
    sharded = max_response_delay(
        case_study_network, "m_BolusReq", "c_StartInfusion",
        zone_backend=backend, jobs=4)
    assert (sharded.bounded, sharded.sup, sharded.attained) == \
        (sequential.bounded, sequential.sup, sequential.attained)
