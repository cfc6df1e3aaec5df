"""Work-stealing branch parallelism: codec, steal-protocol parity, recovery.

The differential heart of this file is *branch-for-branch* parity: a stolen
subtree must reproduce exactly the candidate sets the sequential driver would
have produced from the same branch, and the donor/thief branch counts must add
up to the sequential run's.  :class:`repro.extensions.stealing.InlineStealRuntime`
drives the real scheduler surfaces deterministically (seeded steal points via
:class:`ForcedStealSchedule`), so the grid sweeps every steal cadence without
multiprocessing nondeterminism; the multiprocess tests then cover the actual
shared-memory transport, natural hungry-driven stealing and crash fallback.
"""

import glob

import pytest

from repro import MQCEEngine, QuerySpec
from repro.core.dcfastqc import DCFastQC
from repro.core.fastqc import FastQC
from repro.core.stats import SizeHistogram
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.engine.prepared import PreparedGraph
from repro.extensions.parallel import ParallelDCFastQC, run_compact_subproblem
from repro.extensions.stealing import (ForcedStealSchedule, InlineStealRuntime,
                                       SEGMENT_PREFIX, SharedSubproblemStore,
                                       SubproblemCache, branch_parallel_enumerate,
                                       decode_subproblem, encode_subproblem)
from repro.graph.generators import barabasi_albert
from repro.obs import Tracer
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4


def _subproblems(graph, gamma=GAMMA, theta=THETA):
    return tuple(DCFastQC(graph, gamma, theta).iter_compact_subproblems())


def _shm_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _sequential_answer(graph, gamma=GAMMA, theta=THETA):
    candidates = set()
    for subproblem in _subproblems(graph, gamma, theta):
        chunk, _ = run_compact_subproblem(subproblem, gamma, theta)
        candidates.update(chunk)
    return candidates


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(160, attachment=8, seed=3)


@pytest.fixture(scope="module")
def subproblems(graph):
    found = _subproblems(graph)
    assert found, "fixture graph must decompose into nontrivial subproblems"
    return found


# ----------------------------------------------------------------------
# Shared-memory codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_roundtrip_preserves_every_field(self, subproblems):
        for subproblem in subproblems:
            clone = decode_subproblem(encode_subproblem(subproblem))
            assert clone.root_local == subproblem.root_local
            assert clone.labels == subproblem.labels
            assert clone.adjacency_masks == subproblem.adjacency_masks
            assert clone.halo_labels == subproblem.halo_labels
            assert clone.halo_adjacency == subproblem.halo_adjacency

    def test_store_publish_attach_and_unlink(self, subproblems):
        store = SharedSubproblemStore()
        cache = SubproblemCache()
        try:
            tokens = [store.publish(s) for s in subproblems[:4]]
            assert len(_shm_segments()) >= len(tokens)
            for token, original in zip(tokens, subproblems[:4]):
                assert cache.get(token).labels == original.labels
            # Attach-once: repeated gets hand back the same decoded object.
            assert cache.get(tokens[0]) is cache.get(tokens[0])
        finally:
            cache.close()
            store.close()
        assert _shm_segments() == []


# ----------------------------------------------------------------------
# Branch-for-branch differential parity (deterministic inline protocol)
# ----------------------------------------------------------------------
class TestInlineStealParity:
    @pytest.mark.parametrize("every", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_stolen_subtrees_reproduce_sequential_branches(
            self, subproblems, every, offset):
        total_steals = 0
        for subproblem in subproblems:
            local = subproblem.build_graph()
            maximality = (subproblem.build_maximality_graph()
                          if subproblem.halo_labels else local)
            reference = FastQC(local, GAMMA, THETA, maximality_graph=maximality)
            expected = set(reference.enumerate_branch(subproblem.initial_branch()))

            emissions: list[frozenset] = []

            def make_engine():
                return FastQC(local, GAMMA, THETA, maximality_graph=maximality,
                              on_output=emissions.append)

            donor = make_engine()
            runtime = InlineStealRuntime(
                make_engine, ForcedStealSchedule(every=every, offset=offset))
            runtime.enumerate(donor, subproblem.initial_branch())

            assert set(emissions) == expected
            combined = donor.statistics.branches_explored + sum(
                thief.statistics.branches_explored
                for thief in runtime.thief_engines)
            assert combined == reference.statistics.branches_explored
            total_steals += runtime.steals
        assert total_steals > 0, "the forced schedule must actually steal"


# ----------------------------------------------------------------------
# Multiprocess transport parity
# ----------------------------------------------------------------------
class TestBranchParallel:
    def test_forced_aggressive_stealing_matches_sequential(self, graph,
                                                           subproblems):
        expected = _sequential_answer(graph)
        results, stats, telemetry = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=1))
        assert set(results) == expected
        assert stats.steals > 0
        assert telemetry["steals"] == stats.steals
        assert _shm_segments() == []

    def test_natural_hungry_driven_stealing_matches_sequential(
            self, graph, subproblems):
        expected = _sequential_answer(graph)
        results, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3)
        assert set(results) == expected
        assert _shm_segments() == []

    def test_branch_counts_add_up_to_sequential(self, graph, subproblems):
        sequential_branches = 0
        for subproblem in subproblems:
            _, stats = run_compact_subproblem(subproblem, GAMMA, THETA)
            sequential_branches += stats.branches_explored
        _, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=2))
        assert stats.branches_explored == sequential_branches


# ----------------------------------------------------------------------
# Crash recovery (reuses the PR-9 worker.task fault site)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_killed_worker_falls_back_sequential_without_shm_leak(self, graph):
        expected = filter_non_maximal(
            sorted(_sequential_answer(graph),
                   key=lambda h: (-len(h), sorted(map(str, h)))),
            theta=THETA)
        install_plan("worker.task:kill:times=1")
        try:
            runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
            answers = runner.find_maximal()
        finally:
            reset_plan()
        assert runner.mode_selected == "sequential"
        assert sorted(map(sorted, answers)) == sorted(map(sorted, expected))
        assert _shm_segments() == []


# ----------------------------------------------------------------------
# Satellite 1: no pointless pools
# ----------------------------------------------------------------------
class TestInProcessFallback:
    def test_workers_one_never_spawns_a_pool(self, graph, monkeypatch):
        import repro.extensions.parallel as parallel_module

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel_module, "branch_parallel_enumerate", _boom)
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=1)
        answers = runner.enumerate()
        assert runner.mode_selected == "sequential"
        assert set(answers) == _sequential_answer(graph)

    def test_cpu_count_none_defaults_to_one_worker(self, monkeypatch):
        import repro.extensions.parallel as parallel_module
        # Without sched_getaffinity the default falls back to os.cpu_count(),
        # which may return None.
        monkeypatch.delattr(parallel_module.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        runner = ParallelDCFastQC(barabasi_albert(30, attachment=3, seed=1),
                                  GAMMA, THETA)
        assert runner.workers == 1

    def test_single_affinity_cpu_defaults_to_one_worker(self, graph,
                                                        monkeypatch):
        import repro.extensions.parallel as parallel_module
        # A taskset or CPU-limited container: the machine reports many CPUs,
        # but this process may run on only one of them.
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
        plan = QueryPlanner(PlannerConfig(parallel_min_vertices=1)).plan(
            PreparedGraph(graph), GAMMA, THETA)
        assert not plan.parallel and plan.workers == 1
        assert ParallelDCFastQC(graph, GAMMA, THETA).workers == 1


# ----------------------------------------------------------------------
# Planner: when the gate opens, and that every fan-out runs branch mode
# ----------------------------------------------------------------------
def _branch_histogram(branches=50_000, subproblems=10):
    histogram = SizeHistogram()
    for _ in range(subproblems):
        histogram.record(branches // subproblems)
    return histogram


class TestPlannerModeSelection:
    def _size_gate(self):
        # The 160-vertex fixture core clears this threshold on size alone.
        return QueryPlanner(PlannerConfig(parallel_min_vertices=32,
                                          max_workers=4))

    def _work_gate(self):
        # No core is this large: only observed branch counts open the gate.
        return QueryPlanner(PlannerConfig(parallel_min_vertices=10**9,
                                          max_workers=4))

    def test_every_fan_out_plan_runs_branch_mode(self, graph):
        expected = set(filter_non_maximal(
            sorted(_sequential_answer(graph),
                   key=lambda h: (-len(h), sorted(map(str, h)))),
            theta=THETA))
        observed = PreparedGraph(graph)
        observed.record_subproblem_histogram(GAMMA, THETA, _branch_histogram())
        cases = ((self._size_gate(), PreparedGraph(graph), "auto"),
                 (self._work_gate(), observed, "auto"),
                 (QueryPlanner(), PreparedGraph(graph), "branch"))
        for planner, prepared, parallel in cases:
            engine = MQCEEngine(planner=planner, workers=2)
            spec = QuerySpec(GAMMA, THETA, parallel=parallel)
            assert engine.explain(prepared, spec=spec).parallel
            tracer = Tracer()
            result = engine.query(prepared, spec=spec, use_cache=False,
                                  trace=tracer)
            root = tracer.as_dict()["spans"][0]
            enumerate_span = next(span for span in root["children"]
                                  if span["name"] == "enumerate")
            assert enumerate_span.get("attributes", {}).get("mode") == "branch"
            assert engine.stats()["parallel"]["mode"] == "branch"
            assert set(result.maximal_quasi_cliques) == expected
        assert _shm_segments() == []

    def test_explain_names_the_evidence_that_opened_the_gate(self, graph):
        by_size = self._size_gate().plan(PreparedGraph(graph), GAMMA, THETA)
        assert by_size.parallel
        assert (f"core of {by_size.core_vertices_kept} vertices exceeds the "
                "parallel threshold (32)") in by_size.describe()

        prepared = PreparedGraph(graph)
        prepared.record_subproblem_histogram(GAMMA, THETA, _branch_histogram())
        by_work = self._work_gate().plan(prepared, GAMMA, THETA)
        assert by_work.parallel
        assert "an observed run explored 50000 branches" in by_work.describe()

    def test_forced_modes_and_none(self, graph):
        prepared = PreparedGraph(graph)
        # Default thresholds: the 160-vertex fixture never opens the gate.
        assert not QueryPlanner().plan(prepared, GAMMA, THETA, workers=4).parallel
        forced = QueryPlanner().plan(prepared, GAMMA, THETA, workers=4,
                                     parallel="branch")
        assert forced.parallel and forced.workers == 4
        assert "forced by the caller" in forced.describe()
        disabled = self._size_gate().plan(prepared, GAMMA, THETA, workers=4,
                                          parallel="none")
        assert not disabled.parallel and disabled.workers == 1

    def test_new_observation_invalidates_the_plan_memo(self, graph):
        prepared = PreparedGraph(graph)
        planner = self._work_gate()
        cold = planner.plan(prepared, GAMMA, THETA, workers=4)
        assert not cold.parallel
        prepared.record_subproblem_histogram(GAMMA, THETA, _branch_histogram())
        warm = planner.plan(prepared, GAMMA, THETA, workers=4)
        assert warm.parallel and warm.workers == 4
