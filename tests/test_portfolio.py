"""Differential + behavioral tests for the portfolio verifier.

The headline contract: :class:`repro.mc.portfolio.PortfolioVerifier`
over a scheme grid returns results **bit-identical** — bounds, sups,
verdicts, witnesses and per-sweep states/transitions tallies — to
running ``TimingVerificationFramework.verify`` per scheme
sequentially, across both zone backends, worker counts and *both
job-level executors* (coordinator threads over one shared pool, and
the process executor that partitions whole jobs across worker
processes).  On top of the matrix: deterministic job-ordered commit,
per-job ``max_states`` budgets, per-job fault isolation (including a
worker process that dies outright), shared PIM obligations (computed
in the parent and shipped to process workers), one PSM sweep per job,
executor resolution via ``REPRO_EXECUTOR``, and the
concurrent-wave worker pool itself.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.apps.schemes import scheme_grid
from repro.core.framework import TimingVerificationFramework
from repro.mc.portfolio import (
    ENV_EXECUTOR,
    PortfolioJob,
    PortfolioVerifier,
    portfolio_jobs,
    resolve_executor,
)
from repro.mc.parallel import WorkStealingPool
from repro.zones.backend import available_backends
from repro.zones.intern import ZoneInternTable

from tests.conftest import build_tiny_pim, build_tiny_scheme

BACKENDS = available_backends()
JOBS = (1, 4)
EXECUTORS = ("thread", "process")
DEADLINE = 10
CHANNELS = dict(input_channel="m_Req", output_channel="c_Ack")


@pytest.fixture(params=BACKENDS)
def backend(request):
    """One zone backend, passed explicitly to every verifier."""
    return request.param


def grid_3x2():
    return scheme_grid(build_tiny_scheme,
                       buffer_size=(1, 2, 3), period=(4, 5))


def run_portfolio(schemes, *, jobs, **verifier_kwargs):
    pim = build_tiny_pim()
    verifier = PortfolioVerifier(jobs=jobs, **verifier_kwargs)
    return verifier.run(portfolio_jobs(
        pim, schemes, deadline_ms=DEADLINE, measure_suprema=True,
        **CHANNELS))


def sequential_reports(schemes, backend=None):
    pim = build_tiny_pim()
    framework = TimingVerificationFramework(backend=backend)
    return [
        framework.verify(pim, scheme, deadline_ms=DEADLINE,
                         measure_suprema=True, **CHANNELS)
        for scheme in schemes
    ]


# ----------------------------------------------------------------------
# The differential matrix:
# 3×2 grid × backends × jobs ∈ {1, 4} × executor ∈ {thread, process}
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("jobs", JOBS)
def test_differential_matrix(backend, jobs, executor):
    schemes = grid_3x2()
    outcome = run_portfolio(schemes, backend=backend, jobs=jobs,
                            executor=executor)
    reports = sequential_reports(schemes, backend)

    assert outcome.executor == executor
    assert len(outcome) == 6
    assert outcome.all_ok
    assert [row.name for row in outcome] == [s.name for s in schemes]
    for row, expected in zip(outcome, reports):
        actual = row.report
        assert actual.bounds == expected.bounds
        for step in ("pim_result", "psm_original_result",
                     "psm_relaxed_result"):
            mine = getattr(actual, step)
            theirs = getattr(expected, step)
            assert mine.holds == theirs.holds
            assert mine.visited == theirs.visited
            assert mine.transitions == theirs.transitions
            assert mine.counterexample == theirs.counterexample
            assert mine.trace == theirs.trace
        assert row.constraints_hold == expected.constraints.all_hold
        assert actual.symbolic == expected.symbolic
        assert row.guarantee == expected.implementation_guarantee
        assert row.states == expected.psm_relaxed_result.visited
        assert row.transitions == expected.psm_relaxed_result.transitions


def test_sixteen_scheme_grid_bit_identical_to_sequential():
    """The acceptance-criterion grid size: 16 schemes, portfolio rows
    bit-identical to per-scheme sequential verify (default backend)."""
    schemes = scheme_grid(build_tiny_scheme,
                          buffer_size=(1, 2, 3, 4), period=(4, 5),
                          wcet=(0, 1))
    assert len(schemes) == 16
    outcome = run_portfolio(schemes, jobs=4)
    assert outcome.all_ok
    for row, expected in zip(outcome, sequential_reports(schemes)):
        assert row.report.bounds == expected.bounds
        assert row.states == expected.psm_relaxed_result.visited
        assert row.transitions == expected.psm_relaxed_result.transitions
        assert row.original_holds == expected.psm_original_result.holds
        assert row.relaxed_holds == expected.psm_relaxed_result.holds
        assert row.report.symbolic == expected.symbolic


def test_concurrent_run_matches_sequential_run(backend):
    """concurrency>1 commits the same rows as the inline scheduler."""
    schemes = grid_3x2()
    inline = run_portfolio(schemes, backend=backend, jobs=1)
    threaded = run_portfolio(schemes, backend=backend, jobs=4,
                             concurrency=3)
    for a, b in zip(inline, threaded):
        assert a.name == b.name
        assert a.report.bounds == b.report.bounds
        assert a.states == b.states
        assert a.transitions == b.transitions
        assert a.sups == b.sups


# ----------------------------------------------------------------------
# Scheduler semantics
# ----------------------------------------------------------------------
def test_results_commit_in_job_order():
    schemes = grid_3x2()
    completion: list[str] = []
    outcome = PortfolioVerifier(jobs=4).run(
        portfolio_jobs(build_tiny_pim(), schemes,
                       deadline_ms=DEADLINE, **CHANNELS),
        on_result=lambda row: completion.append(row.name))
    assert sorted(completion) == sorted(s.name for s in schemes)
    assert [row.name for row in outcome] == [s.name for s in schemes]
    assert [row.index for row in outcome] == list(range(6))


def test_on_result_error_never_orphans_jobs():
    """A crashing observer callback must not kill coordinator threads:
    every row still completes and the first callback error re-raises
    after the run — identically for both schedulers."""
    schemes = grid_3x2()
    for workers in (1, 4):
        seen: list[str] = []

        def bad_callback(row):
            seen.append(row.name)
            raise RuntimeError("observer bug")

        verifier = PortfolioVerifier(jobs=workers)
        jobs = portfolio_jobs(build_tiny_pim(), schemes,
                              deadline_ms=DEADLINE, **CHANNELS)
        with pytest.raises(RuntimeError, match="observer bug"):
            verifier.run(jobs, on_result=bad_callback)
        assert len(seen) == len(schemes)  # no job was orphaned
        # The verifier itself is unharmed.
        assert verifier.run(jobs).all_ok


def test_per_job_max_states_budget_isolated():
    pim = build_tiny_pim()
    scheme = build_tiny_scheme()
    jobs = [
        PortfolioJob(name="starved", pim=pim, scheme=scheme,
                     deadline_ms=DEADLINE, max_states=5, **CHANNELS),
        PortfolioJob(name="fine", pim=pim, scheme=scheme,
                     deadline_ms=DEADLINE, **CHANNELS),
    ]
    outcome = PortfolioVerifier(jobs=2).run(jobs)
    assert outcome[0].status == "budget-exceeded"
    assert "5" in outcome[0].error
    assert not outcome[0].guarantee
    assert outcome[1].ok and outcome[1].guarantee
    assert not outcome.all_ok


def test_malformed_job_is_isolated_not_dropped():
    """Even a job that crashes the pipeline outright (scheme=None →
    AttributeError inside transform) must become a structured error
    row — never a dead coordinator thread leaving a None slot."""
    pim = build_tiny_pim()
    good = build_tiny_scheme()
    jobs = [
        PortfolioJob(name="ok", pim=pim, scheme=good,
                     deadline_ms=DEADLINE, **CHANNELS),
        PortfolioJob(name="malformed", pim=pim, scheme=None,
                     deadline_ms=DEADLINE, **CHANNELS),
    ]
    for workers in (1, 2):  # inline and threaded schedulers agree
        outcome = PortfolioVerifier(jobs=workers).run(jobs)
        assert [row.status for row in outcome] == ["ok", "error"]
        assert outcome[1].error and "Error" in outcome[1].error
        assert not outcome.all_ok


def test_invalid_scheme_is_isolated():
    pim = build_tiny_pim()
    good = build_tiny_scheme()
    broken = replace(good, name="broken", inputs={}, io_inputs={})
    outcome = PortfolioVerifier(jobs=2).run(portfolio_jobs(
        pim, [good, broken, good], deadline_ms=DEADLINE, **CHANNELS))
    assert [row.status for row in outcome] == ["ok", "error", "ok"]
    assert "broken" in outcome[1].error or "SchemeError" in \
        outcome[1].error
    assert outcome[0].states == outcome[2].states


def test_shared_pim_obligations_computed_once():
    schemes = grid_3x2()
    outcome = run_portfolio(schemes, jobs=2)
    first = outcome[0].report.pim_result
    assert all(row.report.pim_result is first for row in outcome)


def test_one_psm_sweep_per_job(backend):
    """Constraints, both deadlines and the suprema of a PSM come from
    one exploration — in ``verify`` and in every portfolio job."""
    from repro.api import Session
    from repro.mc.explorer import exploration_count

    session = Session(backend=backend)
    framework = session.framework
    pim, scheme = build_tiny_pim(), build_tiny_scheme()
    before = exploration_count()
    framework.verify_pim(pim, "m_Req", "c_Ack", DEADLINE)
    framework.derive_bounds(pim, scheme, "m_Req", "c_Ack")
    pim_sweeps = exploration_count() - before
    before = exploration_count()
    report = session.verify(pim, scheme, deadline_ms=DEADLINE,
                            measure_suprema=True, **CHANNELS)
    assert exploration_count() - before == pim_sweeps + 1
    assert report.constraints_hold and report.symbolic

    before = exploration_count()
    outcome = run_portfolio(grid_3x2(), backend=backend, jobs=1)
    # The shared PIM pair (first job only) + one sweep per job.
    assert exploration_count() - before == 2 + 6 * 1
    assert outcome.all_ok


def test_private_intern_table_is_used():
    table = ZoneInternTable()
    assert len(table) == 0
    outcome = run_portfolio(grid_3x2(), jobs=2, intern=table)
    assert outcome.all_ok
    assert len(table) > 0


def test_intern_table_scoped_per_run_by_default():
    """A long-lived process sweeping many grids must not accumulate
    zones across portfolio runs: the default interning policy scopes
    a fresh table to each ``run`` call, leaving the process-global
    table untouched.  Passing that table explicitly as ``intern=``
    restores the old cross-run behavior."""
    from repro.zones.intern import global_intern_table

    table = global_intern_table()
    table.clear()
    assert run_portfolio(grid_3x2(), jobs=2).all_ok
    assert len(table) == 0  # nothing leaked into the global table
    # Results are identical either way (same grid, same rows).
    scoped = run_portfolio(grid_3x2(), jobs=2)
    legacy = run_portfolio(grid_3x2(), jobs=2, intern=table)
    assert len(table) > 0   # the legacy mode populates the global
    for a, b in zip(scoped, legacy):
        assert a.report.bounds == b.report.bounds
        assert a.states == b.states
        assert a.transitions == b.transitions
    table.clear()


def test_verify_portfolio_framework_step():
    schemes = grid_3x2()
    framework = TimingVerificationFramework(jobs=2)
    outcome = framework.verify_portfolio(
        build_tiny_pim(), schemes, deadline_ms=DEADLINE, **CHANNELS)
    assert outcome.all_ok
    assert len(outcome.guaranteed) == 6
    summary = outcome.summary()
    for scheme in schemes:
        assert scheme.name in summary


def test_verify_portfolio_forwards_include_progress():
    outcome = TimingVerificationFramework(jobs=1).verify_portfolio(
        build_tiny_pim(), grid_3x2()[:1], deadline_ms=DEADLINE,
        include_progress=True, **CHANNELS)
    assert outcome.all_ok
    constraints = outcome[0].report.constraints
    # The progress sanity check rides along as an extra result row.
    assert any("progress" in r.constraint.lower()
               for r in constraints.results)


def test_render_portfolio_table():
    from repro.analysis.portfolio import portfolio_rows, \
        render_portfolio

    outcome = run_portfolio(grid_3x2()[:2], jobs=1)
    table = render_portfolio(outcome)
    assert "PORTFOLIO VERIFICATION — 2 schemes" in table
    assert "Δ'_mc" in table
    assert outcome[0].name in table
    rows = portfolio_rows(outcome)
    assert rows[0]["states"] == outcome[0].states
    assert rows[0]["guarantee"] is True
    # Every line of the box renders the same *display* width — the
    # Δ̄ headers carry combining marks that len() overcounts.
    import unicodedata

    def display_width(text: str) -> int:
        return sum(0 if unicodedata.combining(c) else 1 for c in text)

    box = [line for line in table.splitlines()
           if line.startswith(("|", "+"))]
    assert len({display_width(line) for line in box}) == 1


# ----------------------------------------------------------------------
# Process executor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("abstraction", ("extra_m", "extra_lu"))
def test_process_differential_both_abstractions(backend, abstraction):
    """Process rows are bit-identical to sequential per-scheme verify
    under either extrapolation operator, on either backend (workers
    replay the parent's resolved backend/abstraction)."""
    schemes = grid_3x2()
    outcome = run_portfolio(schemes, backend=backend, jobs=3,
                            executor="process",
                            abstraction=abstraction)
    pim = build_tiny_pim()
    framework = TimingVerificationFramework(backend=backend,
                                            abstraction=abstraction)
    assert outcome.all_ok and outcome.executor == "process"
    for row, scheme in zip(outcome, schemes):
        expected = framework.verify(pim, scheme, deadline_ms=DEADLINE,
                                    measure_suprema=True, **CHANNELS)
        actual = row.report
        assert actual.bounds == expected.bounds
        for step in ("pim_result", "psm_original_result",
                     "psm_relaxed_result"):
            mine = getattr(actual, step)
            theirs = getattr(expected, step)
            assert mine.holds == theirs.holds
            assert mine.visited == theirs.visited
            assert mine.transitions == theirs.transitions
            assert mine.counterexample == theirs.counterexample
            assert mine.trace == theirs.trace
        assert actual.symbolic == expected.symbolic
        assert row.guarantee == expected.implementation_guarantee


def test_process_budget_blowup_is_isolated():
    """A worker whose job exceeds ``max_states`` yields a structured
    budget row; its siblings (including jobs that land on the *same*
    worker afterwards) complete normally."""
    pim = build_tiny_pim()
    scheme = build_tiny_scheme()
    jobs = [
        PortfolioJob(name="fine-1", pim=pim, scheme=scheme,
                     deadline_ms=DEADLINE, **CHANNELS),
        PortfolioJob(name="starved", pim=pim, scheme=scheme,
                     deadline_ms=DEADLINE, max_states=5, **CHANNELS),
        PortfolioJob(name="fine-2", pim=pim, scheme=scheme,
                     deadline_ms=DEADLINE, **CHANNELS),
    ]
    outcome = PortfolioVerifier(jobs=2, executor="process").run(jobs)
    assert [row.status for row in outcome] == \
        ["ok", "budget-exceeded", "ok"]
    assert "5" in outcome[1].error
    assert outcome[0].states == outcome[2].states
    assert not outcome.all_ok


def test_obligation_budget_blowup_same_status_both_executors():
    """A budget so small even the shared PIM obligation blows up must
    classify identically under both executors: ``budget-exceeded``,
    not a generic error row."""
    job = PortfolioJob(name="tiny-budget", pim=build_tiny_pim(),
                       scheme=build_tiny_scheme(),
                       deadline_ms=DEADLINE, max_states=1, **CHANNELS)
    threaded = PortfolioVerifier(jobs=2).run([job])
    processed = PortfolioVerifier(jobs=2, executor="process").run([job])
    assert threaded[0].status == "budget-exceeded"
    assert processed[0].status == "budget-exceeded"
    assert threaded[0].error == processed[0].error


def test_process_malformed_job_is_isolated():
    pim = build_tiny_pim()
    jobs = [
        PortfolioJob(name="ok", pim=pim, scheme=build_tiny_scheme(),
                     deadline_ms=DEADLINE, **CHANNELS),
        PortfolioJob(name="malformed", pim=pim, scheme=None,
                     deadline_ms=DEADLINE, **CHANNELS),
    ]
    for workers in (1, 2):  # inline fallback and real pool agree
        outcome = PortfolioVerifier(jobs=workers,
                                    executor="process").run(jobs)
        assert [row.status for row in outcome] == ["ok", "error"]
        assert outcome[1].error and "Error" in outcome[1].error


class _ExitBomb:
    """Pickles in the parent; unpickling kills the worker process."""

    def __reduce__(self):
        import os

        return (os._exit, (13,))


def test_process_worker_crash_yields_error_rows_not_a_dead_sweep():
    """A worker that dies outright (here: killed mid-unpickle) breaks
    the pool — every affected job must come back as a structured
    error row, never a hang, an exception or a ``None`` slot, and the
    verifier must be reusable afterwards."""
    pim = build_tiny_pim()
    scheme = build_tiny_scheme()
    jobs = [
        PortfolioJob(name="ok", pim=pim, scheme=scheme,
                     deadline_ms=DEADLINE, **CHANNELS),
        PortfolioJob(name="bomb", pim=pim, scheme=_ExitBomb(),
                     deadline_ms=DEADLINE, **CHANNELS),
    ]
    verifier = PortfolioVerifier(jobs=2, executor="process")
    outcome = verifier.run(jobs)
    assert len(outcome) == 2
    assert all(row is not None for row in outcome.results)
    assert outcome[1].status == "error"
    assert "worker failed" in outcome[1].error
    # The sweep survives the broken pool, and so does the verifier.
    healthy = verifier.run([jobs[0]])
    assert healthy.all_ok


def test_process_worker_takes_its_config_as_an_argument():
    """The process-worker entry point reads nothing process-wide: the
    backend and abstraction it runs on come with each job."""
    from repro.mc.explorer import ZoneGraphExplorer
    from repro.mc.parallel import EngineConfig
    from repro.mc.portfolio import (
        _process_worker_run,
        _ProcessConfig,
        _ProcessJobSpec,
    )

    job = PortfolioJob(name="tiny", pim=build_tiny_pim(),
                       scheme=build_tiny_scheme(),
                       deadline_ms=DEADLINE, **CHANNELS)
    expected = run_portfolio([job.scheme], jobs=None)[0]
    for backend in BACKENDS:
        seen = set()
        original = ZoneGraphExplorer.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen.add((self.backend.name, self.abstraction.name))

        config = _ProcessConfig(
            engine=EngineConfig(backend=backend,
                                abstraction="extra_lu"),
            max_states=500_000)
        ZoneGraphExplorer.__init__ = spy
        try:
            row = _process_worker_run(
                config, _ProcessJobSpec(index=0, job=job))
        finally:
            ZoneGraphExplorer.__init__ = original
        assert row.ok
        assert seen == {(backend, "extra_lu")}
        assert row.report.bounds == expected.report.bounds
        assert row.guarantee == expected.guarantee


def test_process_results_commit_in_job_order_and_stream():
    schemes = grid_3x2()
    completion: list[str] = []
    outcome = PortfolioVerifier(jobs=4, executor="process").run(
        portfolio_jobs(build_tiny_pim(), schemes,
                       deadline_ms=DEADLINE, **CHANNELS),
        on_result=lambda row: completion.append(row.name))
    assert sorted(completion) == sorted(s.name for s in schemes)
    assert [row.name for row in outcome] == [s.name for s in schemes]
    assert [row.index for row in outcome] == list(range(6))


def test_process_on_result_error_reraises_after_all_rows():
    seen: list[str] = []

    def bad_callback(row):
        seen.append(row.name)
        raise RuntimeError("observer bug")

    jobs = portfolio_jobs(build_tiny_pim(), grid_3x2(),
                          deadline_ms=DEADLINE, **CHANNELS)
    verifier = PortfolioVerifier(jobs=2, executor="process")
    with pytest.raises(RuntimeError, match="observer bug"):
        verifier.run(jobs, on_result=bad_callback)
    assert len(seen) == len(jobs)  # no job was orphaned
    assert verifier.run(jobs).all_ok


def test_process_obligations_computed_once_in_parent():
    """The parent runs exactly the two scheme-independent sweeps
    (step 1 + internal sup) and ships the values to the workers."""
    from repro.mc.explorer import exploration_count

    jobs = portfolio_jobs(build_tiny_pim(), grid_3x2(),
                          deadline_ms=DEADLINE, **CHANNELS)
    before = exploration_count()
    outcome = PortfolioVerifier(jobs=2, executor="process").run(jobs)
    shared_sweeps = exploration_count() - before
    assert outcome.all_ok
    assert shared_sweeps == 2


def test_executor_resolution_and_validation(monkeypatch):
    from repro.api import Session

    monkeypatch.delenv(ENV_EXECUTOR, raising=False)
    assert resolve_executor() == "thread"
    assert resolve_executor("process") == "process"
    monkeypatch.setenv(ENV_EXECUTOR, "process")
    # The environment reaches the verifier through the session ...
    session = Session(jobs=1)
    assert session.executor == "process"
    outcome = session.portfolio(build_tiny_pim(), grid_3x2()[:1],
                                deadline_ms=DEADLINE, **CHANNELS)
    assert outcome.executor == "process"
    # ... and never below it, where None means thread.
    assert resolve_executor() == "thread"
    jobs = portfolio_jobs(build_tiny_pim(), grid_3x2()[:1],
                          deadline_ms=DEADLINE, **CHANNELS)
    assert PortfolioVerifier(jobs=1).run(jobs).executor == "thread"
    monkeypatch.setenv(ENV_EXECUTOR, "goroutine")
    with pytest.raises(ValueError, match="goroutine"):
        Session()
    with pytest.raises(ValueError, match="fiber"):
        PortfolioVerifier(executor="fiber")  # eager validation


def test_engine_config_capture_and_pickle_roundtrip(monkeypatch):
    """The engine config resolves to canonical names and survives
    pickling (it crosses the process boundary with every job)."""
    import pickle

    from repro.mc.parallel import EngineConfig

    monkeypatch.setenv("REPRO_ABSTRACTION", "lu")
    config = EngineConfig.resolve(backend=BACKENDS[0])
    assert config.backend == BACKENDS[0]
    assert config.abstraction == "extra_lu"
    assert config.jobs is None
    assert pickle.loads(pickle.dumps(config)) == config
    # Explicit arguments beat the environment.
    explicit = EngineConfig.resolve(abstraction="extra_m", jobs=3)
    assert explicit.abstraction == "extra_m"
    assert explicit.jobs == 3


# ----------------------------------------------------------------------
# Cross-scheme reuse: verdict memo, dominance pruning, fallback
# ----------------------------------------------------------------------
def assert_rows_equal(baseline, candidate, *, allow_derived=False):
    """Bit-identical verdict columns; tallies compared when both rows
    ran (memoized rows keep the donor's tallies — exact by the
    occupancy-certificate bisimulation; derived rows have none)."""
    for a, b in zip(baseline, candidate):
        assert a.name == b.name
        assert a.status == b.status
        assert a.report.bounds == b.report.bounds
        assert a.constraints_hold == b.constraints_hold
        assert a.relaxed_holds == b.relaxed_holds
        assert a.guarantee == b.guarantee
        if b.derived_from is None:
            assert a.original_holds == b.original_holds
            assert a.states == b.states
            assert a.transitions == b.transitions
            assert {k: (v.bounded, v.sup, v.attained)
                    for k, v in a.sups.items()} == \
                {k: (v.bounded, v.sup, v.attained)
                 for k, v in b.sups.items()}
        else:
            assert allow_derived
            assert b.states is None and b.transitions is None


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("jobs", JOBS)
def test_reuse_differential_matrix(backend, jobs, executor):
    """Memo-on rows are bit-identical to memo-off across backends,
    executors and worker counts — and the memo actually fires (the
    3×2 grid's buffer axis collapses)."""
    schemes = grid_3x2()
    baseline = run_portfolio(schemes, backend=backend, jobs=jobs,
                             executor=executor)
    reused = run_portfolio(schemes, backend=backend, jobs=jobs,
                           executor=executor, reuse=True)
    assert_rows_equal(baseline, reused)
    assert reused.reuse
    assert reused.memoized > 0
    assert reused.explored + reused.memoized == len(schemes)
    assert all(row.memo_hit is not None
               for row in reused if row.memo_hit), "provenance set"
    hits = [row for row in reused if row.memo_hit is not None]
    names = {row.name for row in reused}
    assert all(row.memo_hit in names for row in hits)


@pytest.mark.parametrize("abstraction", ("extra_m", "extra_lu"))
def test_reuse_differential_both_abstractions(abstraction):
    schemes = grid_3x2()
    baseline = run_portfolio(schemes, jobs=1, abstraction=abstraction)
    reused = run_portfolio(schemes, jobs=1, abstraction=abstraction,
                           reuse=True)
    assert_rows_equal(baseline, reused)
    assert reused.memoized > 0


def test_memo_off_is_the_default():
    """Library default keeps every scheme on its own sweep — the
    pinned exploration-count contracts elsewhere depend on it."""
    outcome = run_portfolio(grid_3x2(), jobs=1)
    assert not outcome.reuse
    assert outcome.memoized == 0
    assert all(row.memo_hit is None and row.derived_from is None
               for row in outcome)


def test_reuse_never_bridges_distinct_timing():
    """Schemes differing in period never share memo entries."""
    schemes = scheme_grid(build_tiny_scheme, buffer_size=(2,),
                          period=(4, 5, 6))
    outcome = run_portfolio(schemes, jobs=1, reuse=True)
    assert outcome.all_ok
    assert outcome.memoized == 0
    assert outcome.explored == 3


def test_small_grid_fallback_skips_shared_pool():
    """Satellite: on grids with at least as many jobs as workers the
    verifier runs whole jobs concurrently on inline engines instead
    of zone-level waves — the non-timing overhead proxy is the wave
    counter, which must be zero under the fallback and positive on
    the shared pool a wider pool (8 workers > 6 jobs) keeps.  Rows
    agree bit-for-bit."""
    schemes = grid_3x2()
    fallback = run_portfolio(schemes, jobs=4)
    pooled = run_portfolio(schemes, jobs=8)
    assert fallback.pool_width == 0
    assert fallback.pool_waves == 0
    assert pooled.pool_width == 8
    assert pooled.pool_waves > 0
    assert_rows_equal(pooled, fallback)


def test_fallback_requires_enough_jobs():
    """Fewer jobs than workers keeps the shared pool (zone-level
    parallelism is all there is)."""
    schemes = grid_3x2()[:2]
    outcome = run_portfolio(schemes, jobs=4)
    assert outcome.pool_width == 4
    assert outcome.all_ok


def test_tiny_fallback_drops_to_sequential():
    """Satellite: for tiny models the fallback goes all the way to
    the sequential scheduler — whole-job coordinator threads only
    add GIL contention at that scale.  The non-timing proxy is the
    recorded coordinator count; an explicit ``concurrency`` always
    wins over the drop.  Rows agree bit-for-bit either way."""
    schemes = grid_3x2()
    auto = run_portfolio(schemes, jobs=4)
    assert auto.pool_width == 0
    assert auto.concurrency == 1
    forced = run_portfolio(schemes, jobs=4, concurrency=4)
    assert forced.pool_width == 0
    assert forced.concurrency == 4
    assert_rows_equal(auto, forced)


def test_sequential_hint_is_static_and_size_scaled():
    """The sequential drop keys on structural size x deadline
    horizon — both knowable before exploration — so the case-study
    PSM (bigger network, 500 ms horizon) keeps its coordinators."""
    from repro.apps.infusion import REQ1_DEADLINE_MS, build_infusion_pim
    from repro.apps.schemes import case_study_scheme

    tiny = portfolio_jobs(build_tiny_pim(), grid_3x2()[:1],
                          deadline_ms=DEADLINE, **CHANNELS)[0]
    assert PortfolioVerifier._tiny_workload(tiny)
    case = portfolio_jobs(
        build_infusion_pim(), [case_study_scheme()],
        input_channel="m_BolusReq",
        output_channel="c_StartInfusion",
        deadline_ms=REQ1_DEADLINE_MS)[0]
    assert not PortfolioVerifier._tiny_workload(case)


def prune_jobs(schemes):
    """Dominance pruning never groups suprema jobs, so these run
    without ``measure_suprema``."""
    return portfolio_jobs(build_tiny_pim(), schemes,
                          deadline_ms=DEADLINE, **CHANNELS)


def test_prune_dominated_derives_from_harder_neighbor():
    """Points dominated along the period axis inherit Theorem-1
    verdicts from the verified harder neighbor, with provenance."""
    schemes = scheme_grid(build_tiny_scheme, buffer_size=(2,),
                          period=(4, 5, 6))
    baseline = PortfolioVerifier(jobs=1).run(prune_jobs(schemes))
    pruned = PortfolioVerifier(jobs=1, prune_dominated=True).run(
        prune_jobs(schemes))
    assert_rows_equal(baseline, pruned, allow_derived=True)
    assert pruned.pruned == 2  # periods 4, 5 derive from period 6
    derived = [row for row in pruned if row.derived_from is not None]
    assert len(derived) == 2
    names = {row.name for row in pruned}
    assert all(row.derived_from in names for row in derived)
    # Derived rows still carry their *own* analytic bounds.
    for a, b in zip(baseline, pruned):
        assert a.report.bounds == b.report.bounds


def test_prune_dominated_never_groups_suprema_jobs():
    schemes = scheme_grid(build_tiny_scheme, buffer_size=(2,),
                          period=(4, 5))
    outcome = run_portfolio(schemes, jobs=1, prune_dominated=True)
    assert outcome.all_ok
    assert outcome.pruned == 0  # measure_suprema=True blocks grouping
    assert all(row.derived_from is None for row in outcome)


def test_prune_and_reuse_compose(backend):
    schemes = grid_3x2()
    baseline = PortfolioVerifier(jobs=1, backend=backend).run(
        prune_jobs(schemes))
    combined = PortfolioVerifier(jobs=1, backend=backend,
                                 reuse=True, prune_dominated=True).run(
        prune_jobs(schemes))
    assert_rows_equal(baseline, combined, allow_derived=True)
    assert combined.pruned > 0
    assert combined.explored + combined.memoized + combined.pruned \
        == len(schemes)


def test_process_reuse_and_prune():
    schemes = grid_3x2()
    baseline = PortfolioVerifier(jobs=2, executor="process").run(
        prune_jobs(schemes))
    combined = PortfolioVerifier(jobs=2, executor="process", reuse=True,
                                 prune_dominated=True).run(
        prune_jobs(schemes))
    assert_rows_equal(baseline, combined, allow_derived=True)
    assert combined.memoized + combined.pruned > 0


def test_warm_start_keeps_rows_identical_across_runs():
    schemes = grid_3x2()
    baseline = run_portfolio(schemes, jobs=2)
    # 8 workers > 6 jobs: the grid runs on the shared pool.
    verifier = PortfolioVerifier(jobs=8, warm_start=True)
    jobs = portfolio_jobs(build_tiny_pim(), schemes,
                          deadline_ms=DEADLINE, measure_suprema=True,
                          **CHANNELS)
    first = verifier.run(jobs)
    second = verifier.run(jobs)
    assert_rows_equal(baseline, first)
    assert_rows_equal(baseline, second)
    # The pinned table persists across runs and was actually used.
    assert verifier._warm_intern is not None
    assert verifier._warm_intern.hits > 0


def test_warm_start_cap_bounds_the_pinned_table():
    """``warm_start_max_zones`` turns the daemon memory leak into a
    bounded cache: the pinned table generation-resets at capacity
    (visible in the outcome counters) and rows stay identical."""
    schemes = grid_3x2()
    baseline = run_portfolio(schemes, jobs=2)
    verifier = PortfolioVerifier(jobs=8, warm_start=True,
                                 warm_start_max_zones=8)
    jobs = portfolio_jobs(build_tiny_pim(), schemes,
                          deadline_ms=DEADLINE, measure_suprema=True,
                          **CHANNELS)
    for _ in range(3):
        outcome = verifier.run(jobs)
        assert_rows_equal(baseline, outcome)
        assert outcome.interned_zones <= 8
    table = verifier._warm_intern
    assert table is not None
    assert table.max_zones == 8
    assert len(table) <= 8
    # The tiny grid interns far more than 8 distinct zones per run,
    # so the cap must have evicted (generation resets > 0) — and the
    # counters surface through both reporting paths.
    assert table.resets > 0
    assert outcome.intern_resets == table.resets
    assert verifier.warm_start_stats() == {
        "zones": len(table), "resets": table.resets}


def test_warm_start_cap_validation():
    with pytest.raises(ValueError):
        PortfolioVerifier(warm_start=True, warm_start_max_zones=0)


def test_injected_memo_is_shared_across_verifiers():
    """The service hands several verifiers one server-lifetime memo:
    the second verifier answers from entries the first committed."""
    from repro.mc.memo import VerdictMemo

    schemes = grid_3x2()
    memo = VerdictMemo()
    first = PortfolioVerifier(jobs=1, reuse=True, memo=memo)
    jobs = portfolio_jobs(build_tiny_pim(), schemes,
                          deadline_ms=DEADLINE, measure_suprema=True,
                          **CHANNELS)
    outcome_a = first.run(jobs)
    hits_after_first = memo.hits
    second = PortfolioVerifier(jobs=1, reuse=True, memo=memo)
    outcome_b = second.run(jobs)
    assert_rows_equal(outcome_a.results, outcome_b.results)
    # Every second-run job is answered from the shared memo.
    assert outcome_b.memoized == len(schemes)
    assert memo.hits > hits_after_first


def test_run_job_single_job_front_door():
    """``run_job`` returns the same row :meth:`run` commits for the
    same job, and concurrent ``run_job`` callers dedupe through the
    shared memo."""
    schemes = grid_3x2()[:1]
    pim = build_tiny_pim()
    jobs = portfolio_jobs(pim, schemes, deadline_ms=DEADLINE,
                          measure_suprema=True, **CHANNELS)
    baseline = run_portfolio(schemes, jobs=1)
    verifier = PortfolioVerifier(jobs=1, reuse=True)
    row = verifier.run_job(jobs[0])
    assert row.status == "ok"
    assert_rows_equal([baseline[0]], [row])
    again = verifier.run_job(jobs[0])
    assert again.memo_hit == jobs[0].name
    assert_rows_equal([baseline[0]], [again])


def test_render_portfolio_shows_reuse_provenance():
    from repro.analysis.portfolio import render_portfolio

    outcome = run_portfolio(grid_3x2(), jobs=1, reuse=True)
    table = render_portfolio(outcome)
    assert "origin" in table
    assert "memo=" in table
    assert "reuse:" in table
    rows = [row.row() for row in outcome]
    assert any("memo_hit" in row for row in rows)


# ----------------------------------------------------------------------
# The shared worker pool itself
# ----------------------------------------------------------------------
class TestWorkStealingPool:
    def test_concurrent_waves_complete_independently(self):
        pool = WorkStealingPool(2)
        try:
            counts = {}

            def submit(tag: int) -> None:
                done = []
                pool.run_wave([lambda i=i: done.append(i)
                               for i in range(25)])
                counts[tag] = len(done)

            threads = [threading.Thread(target=submit, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert counts == {0: 25, 1: 25, 2: 25, 3: 25}
        finally:
            pool.shutdown()

    def test_error_scoped_to_its_wave(self):
        pool = WorkStealingPool(2)
        try:
            def boom() -> None:
                raise RuntimeError("wave-scoped")

            with pytest.raises(RuntimeError, match="wave-scoped"):
                pool.run_wave([boom])
            # The pool survives and the next wave is unaffected.
            done = []
            pool.run_wave([lambda: done.append(1)])
            assert done == [1]
        finally:
            pool.shutdown()

    def test_rejects_waves_after_shutdown(self):
        pool = WorkStealingPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run_wave([lambda: None])


# ----------------------------------------------------------------------
# Memo in-flight failure protocol: a crashed leader must not strand
# its waiters
# ----------------------------------------------------------------------
class TestMemoFailureProtocol:
    def test_failed_commit_wakes_waiters_with_sentinel(self):
        from repro.mc.memo import VerdictMemo

        memo = VerdictMemo()
        key = ("k",)
        assert memo.claim(key) is None  # this thread is the leader
        ready = threading.Semaphore(0)
        sentinels: list[bool] = []

        def follower() -> None:
            record = memo.claim(key)
            assert record is not None
            ready.release()
            assert record.event.wait(timeout=10), "waiter stranded"
            sentinels.append(record.failed)

        threads = [threading.Thread(target=follower)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in threads:
            ready.acquire()
        memo.commit(key, None)  # the leader failed
        for thread in threads:
            thread.join(timeout=10)
        assert sentinels == [True] * 4
        assert memo.failures == 1
        # Ownership is free again: the fallback explorers do not need
        # it, but a later job may claim the key afresh.
        assert memo.claim(key) is None

    def test_successful_commit_is_not_flagged(self):
        from repro.mc.memo import MemoEntry, VerdictMemo

        memo = VerdictMemo()
        key = ("k",)
        assert memo.claim(key) is None
        record = memo.claim(key)
        entry = MemoEntry(donor="a", erased=(), maxima={},
                          constraints=None, original=None,
                          relaxed=None)
        memo.commit(key, entry)
        assert record.event.is_set()
        assert record.failed is False
        assert memo.failures == 0
        assert memo.stats()["failures"] == 0

    def test_crashing_leader_followers_fall_back(self, monkeypatch):
        """The pre-fix deadlock: a leader raising mid-exploration left
        its waiters blocked (or serially re-claiming).  Now the commit
        of ``None`` carries the failed sentinel, waiting followers
        explore concurrently, and the grid finishes with exactly one
        error row — verdicts of the survivors identical to a clean
        run."""
        from repro.mc.memo import VerdictMemo

        schemes = scheme_grid(build_tiny_scheme,
                              buffer_size=(1, 2, 3), period=(4,))
        baseline = run_portfolio(schemes, jobs=1)

        follower_waiting = threading.Event()
        real_claim = VerdictMemo.claim

        def claim(self, key):
            record = real_claim(self, key)
            if record is not None:
                follower_waiting.set()
            return record

        crashed = []
        real_explore = PortfolioVerifier._explore_job

        def explore(self, *args, **kwargs):
            if not crashed:
                crashed.append(True)
                # Give a follower time to block on the claim (if the
                # schedule never overlaps, the timeout keeps the test
                # valid — just less adversarial).
                follower_waiting.wait(timeout=2)
                raise RuntimeError("leader crashed")
            return real_explore(self, *args, **kwargs)

        monkeypatch.setattr(VerdictMemo, "claim", claim)
        monkeypatch.setattr(PortfolioVerifier, "_explore_job",
                            explore)
        outcome = run_portfolio(schemes, jobs=1, reuse=True,
                                concurrency=3)
        errors = [row for row in outcome if row.status == "error"]
        assert len(errors) == 1
        assert "leader crashed" in errors[0].error
        by_name = {row.name: row for row in baseline}
        survivors = [row for row in outcome if row.status == "ok"]
        assert len(survivors) == len(schemes) - 1
        for row in survivors:
            want = by_name[row.name]
            assert row.guarantee == want.guarantee
            assert row.constraints_hold == want.constraints_hold
            assert row.relaxed_holds == want.relaxed_holds
            assert row.report.bounds == want.report.bounds
