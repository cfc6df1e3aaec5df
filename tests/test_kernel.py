"""Tests for the incremental branch-state kernel (repro.core.kernel).

Three layers of guarantees:

1. **Ledger invariant** — after arbitrary include/remove sequences, the
   ``deg_in_s`` / ``deg_in_union`` ledgers equal degrees recomputed from
   scratch (the property the whole kernel rests on).
2. **Component parity** — refinement, pivot selection and branch generation
   agree with their mask-based :mod:`repro.oracle` counterparts on random
   branches, and the union minimum refinement hands over equals a fresh
   :func:`union_min_degree` scan.
3. **Driver behaviour** — the explicit work stack searches arbitrarily deep
   branch trees without touching the Python recursion limit, and the emit
   path dedups and checks maximality on masks, building labels only for kept
   outputs.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core import kernel as kernel_module
from repro.core.branch import Branch
from repro.core.branching import BRANCHING_METHODS
from repro.core.csr import CSRGraph
from repro.core.dcfastqc import (
    CompactSubproblem,
    DCFastQC,
    two_hop_pruning_threshold,
)
from repro.core.fastqc import FastQC
from repro.core.kernel import (
    BranchState,
    depth_first_enumerate,
    generate_child_states,
    one_hop_pass,
    pivot_from_state,
    refine_state,
    terminates_by_theta_state,
    two_hop_pass,
    union_min_degree,
)
from repro.core.stats import SearchStatistics
from repro.graph.generators import erdos_renyi_gnm, erdos_renyi_gnp
from repro.graph.graph import Graph, iter_bits
from repro.graph.subgraph import two_hop_mask
from repro.oracle import (
    ReferenceDCFastQC,
    ReferenceFastQC,
    ReferenceQuickPlus,
    generate_branches,
    progressively_refine,
    select_pivot,
)
from repro.quasiclique.definitions import degree_threshold


def _random_branch(graph: Graph, rng: random.Random) -> Branch:
    """A random (S, C, D) partition of the graph's vertices."""
    s_mask = c_mask = d_mask = 0
    for index in range(graph.vertex_count):
        roll = rng.random()
        if roll < 0.2:
            s_mask |= 1 << index
        elif roll < 0.75:
            c_mask |= 1 << index
        elif roll < 0.9:
            d_mask |= 1 << index
    return Branch(s_mask, c_mask, d_mask)


def _assert_ledgers_match(graph: Graph, state: BranchState) -> None:
    union = state.union_mask
    assert state.s_size == state.s_mask.bit_count()
    assert state.c_size == state.c_mask.bit_count()
    for vertex in iter_bits(union):
        adjacency = graph.adjacency_mask(vertex)
        assert state.deg_in_s[vertex] == (adjacency & state.s_mask).bit_count()
        assert state.deg_in_union[vertex] == (adjacency & union).bit_count()


class TestBranchStateLedgers:
    def test_from_branch_initialises_ledgers(self):
        graph = erdos_renyi_gnm(12, 24, seed=41)
        state = BranchState.from_branch(graph, _random_branch(graph, random.Random(1)))
        _assert_ledgers_match(graph, state)

    def test_property_random_move_sequences(self):
        """Ledger values equal recomputed degrees after every random move."""
        rng = random.Random(77)
        for trial in range(15):
            graph = erdos_renyi_gnp(14, rng.uniform(0.2, 0.7), seed=700 + trial)
            state = BranchState.from_branch(graph, Branch.initial(graph))
            while state.c_mask:
                vertex = rng.choice(list(iter_bits(state.c_mask)))
                if rng.random() < 0.5:
                    state.include(vertex)
                else:
                    state.remove(vertex, exclude=rng.random() < 0.5)
                _assert_ledgers_match(graph, state)

    def test_copy_is_independent(self):
        graph = erdos_renyi_gnm(10, 18, seed=42)
        state = BranchState.from_branch(graph, Branch.initial(graph))
        fork = state.copy()
        fork.include(next(iter_bits(fork.c_mask)))
        _assert_ledgers_match(graph, state)
        _assert_ledgers_match(graph, fork)
        assert state.s_mask != fork.s_mask

    def test_moves_are_counted(self):
        graph = erdos_renyi_gnm(8, 14, seed=43)
        stats = SearchStatistics()
        state = BranchState.from_branch(graph, Branch.initial(graph), stats)
        first = next(iter_bits(state.c_mask))
        state.include(first)
        state.remove(next(iter_bits(state.c_mask)), exclude=True)
        assert stats.ledger_moves == 2
        assert stats.ledger_updates >= len(graph.adjacency_set(first))

    def test_to_branch_round_trip(self):
        graph = erdos_renyi_gnm(9, 15, seed=44)
        branch = _random_branch(graph, random.Random(2))
        assert BranchState.from_branch(graph, branch).to_branch() == branch


class TestKernelReferenceParity:
    """Each kernel component decides exactly like its mask-based reference."""

    GRID = [(0.5, 2), (0.7, 3), (0.9, 4), (1.0, 3)]

    def test_refine_state_matches_progressively_refine(self):
        rng = random.Random(99)
        unpruned = 0
        for trial in range(30):
            graph = erdos_renyi_gnp(12, rng.uniform(0.25, 0.7), seed=1300 + trial)
            branch = _random_branch(graph, rng)
            gamma, theta = rng.choice(self.GRID)
            reference = progressively_refine(graph, branch, gamma, theta)
            state = BranchState.from_branch(graph, branch)
            (pruned, tau_value, rounds, removed1, removed2,
             min_deg, argmin) = refine_state(state, gamma, theta)
            assert pruned == reference.pruned
            assert tau_value == reference.tau_value
            assert rounds == reference.rounds
            assert removed1 == reference.removed_by_rule1
            assert removed2 == reference.removed_by_rule2
            assert state.s_mask == reference.branch.s_mask
            assert state.c_mask == reference.branch.c_mask
            _assert_ledgers_match(graph, state)
            if not pruned:
                # Refinement hands over the pivot scan's minimum and argmin.
                assert (min_deg, argmin) == union_min_degree(state)
                unpruned += 1
        assert unpruned >= 5

    def test_pivot_and_children_match_reference(self):
        rng = random.Random(55)
        checked_pivots = 0
        for trial in range(40):
            graph = erdos_renyi_gnp(11, rng.uniform(0.25, 0.7), seed=1400 + trial)
            branch = _random_branch(graph, rng)
            gamma, theta = rng.choice(self.GRID)
            reference = progressively_refine(graph, branch, gamma, theta)
            if reference.pruned:
                continue
            refined = reference.branch
            tau_value = reference.tau_value
            state = BranchState.from_branch(graph, refined)
            reference_pivot = select_pivot(graph, refined, tau_value)
            min_deg, argmin = union_min_degree(state)
            union_size = state.union_size
            if reference_pivot is None:
                assert union_size - min_deg <= tau_value  # T1 fires identically
                continue
            assert union_size - min_deg > tau_value
            kernel_pivot = pivot_from_state(state, argmin, tau_value)
            assert kernel_pivot == reference_pivot
            checked_pivots += 1
            for method in BRANCHING_METHODS:
                reference_children = generate_branches(
                    graph, refined, reference_pivot, method)
                kernel_children = generate_child_states(
                    state.copy(), kernel_pivot, method)
                assert [child.to_branch() for child in kernel_children] \
                    == reference_children
                for child in kernel_children:
                    _assert_ledgers_match(graph, child)
        assert checked_pivots >= 5  # the trial grid must actually exercise pivots

    def test_t2_matches_reference(self):
        rng = random.Random(31)
        for trial in range(30):
            graph = erdos_renyi_gnp(10, rng.uniform(0.3, 0.7), seed=1600 + trial)
            branch = _random_branch(graph, rng)
            gamma, theta = rng.choice(self.GRID)
            state = BranchState.from_branch(graph, branch)
            algo = ReferenceFastQC(graph, gamma, theta)
            for tau_value in (0, 1, 2):
                assert (terminates_by_theta_state(state, theta, tau_value)
                        == algo._terminates_by_theta(branch, tau_value))


class TestWorkStackDriver:
    def test_deep_search_needs_no_recursion(self):
        """A 120-vertex path drives the branch tree ~120 levels deep; the old
        recursive search needed a raised recursion limit for it."""
        graph = Graph(edges=[(i, i + 1) for i in range(119)])
        margin = sys.getrecursionlimit() - _current_stack_depth()
        limit = _current_stack_depth() + 80
        previous = sys.getrecursionlimit()
        assert margin > 80, "test environment has an unusually deep stack"
        sys.setrecursionlimit(limit)
        try:
            results = FastQC(graph, 0.5, 2).enumerate()
        finally:
            sys.setrecursionlimit(previous)
        # Every edge of the path is a maximal 0.5-quasi-clique seed.
        assert len(results) == 118

    def test_recursion_limit_untouched_during_search(self):
        """The old entry point raised sys.recursionlimit mid-run; the work
        stack must leave it alone, observed from inside the enumeration."""
        graph = erdos_renyi_gnm(30, 80, seed=21)
        before = sys.getrecursionlimit()
        seen: list[int] = []
        algo = FastQC(graph, 0.8, 3,
                      on_output=lambda labels: seen.append(sys.getrecursionlimit()))
        algo.enumerate()
        assert seen, "the instance must produce at least one output"
        assert all(value == before for value in seen)
        assert sys.getrecursionlimit() == before

    def test_driver_post_order_semantics(self):
        """close() fires after the children and G[S] fallback short-circuits."""
        visits = []

        def expand(node):
            visits.append(("expand", node["id"]))
            if "children" in node:
                return node["children"], node["id"]
            return node["found"]

        def close(node_id, sub_found):
            visits.append(("close", node_id, sub_found))
            return sub_found

        tree = {"id": "root", "children": [
            {"id": "a", "found": False},
            {"id": "b", "children": [{"id": "b1", "found": True}]},
            {"id": "c", "found": False},
        ]}
        assert depth_first_enumerate(tree, expand, close) is True
        assert visits == [
            ("expand", "root"),
            ("expand", "a"),
            ("expand", "b"),
            ("expand", "b1"),
            ("close", "b", True),
            ("expand", "c"),
            ("close", "root", True),
        ]

    def test_driver_cancellation_claims_found(self):
        calls = []
        result = depth_first_enumerate(
            {"id": "root"}, lambda node: calls.append(node) or False,
            lambda payload, found: found, should_stop=lambda: True)
        assert result is True
        assert calls == []  # expansion never ran

    @pytest.mark.parametrize("seed", range(12))
    def test_a_parked_search_closes_like_an_uninterrupted_one(self, seed):
        """Stopped before any visit, every pending visit handed to ``park``
        and its verdict contributed (in any order) closes every branch with
        the same verdict as the uninterrupted search, exactly once."""
        rng = random.Random(seed)
        counter = iter(range(10 ** 6))

        def grow(depth):
            node = {"id": next(counter)}
            if depth < 5 and rng.random() < 0.7:
                node["children"] = [grow(depth + 1) for _ in range(rng.randint(1, 3))]
            else:
                node["found"] = rng.random() < 0.3
            return node

        tree = grow(0)
        log = {"expanded": 0, "closed": []}

        def expand(node):
            log["expanded"] += 1
            if "children" in node:
                return node["children"], node["id"]
            return node["found"]

        def close(node_id, sub_found):
            # A G[S]-style fallback: some branches emit when no child did.
            emits = not sub_found and node_id % 3 == 0
            log["closed"].append((node_id, sub_found, emits))
            return emits

        expected_root = depth_first_enumerate(tree, expand, close)
        expected = (log["expanded"], sorted(log["closed"]))
        for stop_at in range(expected[0] + 1):
            log["expanded"], log["closed"] = 0, []
            parked = []
            assert depth_first_enumerate(
                tree, expand, close, should_stop=lambda: log["expanded"] >= stop_at,
                park=parked.extend) is (None if stop_at < expected[0] else expected_root)
            root = None
            rng.shuffle(parked)
            for state, frame in parked:
                verdict = depth_first_enumerate(state, expand, close)
                resolved = kernel_module.contribute_steal_result(frame, verdict, close)
                if resolved is not None:
                    root = resolved
            if stop_at < expected[0]:
                assert parked and root is expected_root
            assert (log["expanded"], sorted(log["closed"])) == expected


class TestEmitPath:
    def test_duplicate_masks_counted_once(self):
        """Dedup now runs before the maximality check, so a suppressed mask
        re-emitted from another branch costs nothing and counts once."""
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        algo = FastQC(graph, 1.0, 2)
        mask = graph.mask_of([0, 1])  # extensible by vertex 2 -> suppressed
        assert algo._emit(mask) is True
        assert algo._emit(mask) is True
        assert algo.statistics.outputs_suppressed_by_maximality == 1
        assert algo.statistics.outputs == 0

    def test_small_masks_short_circuit(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        algo = FastQC(graph, 1.0, 3)
        assert algo._emit(graph.mask_of([0, 1])) is True
        assert algo.statistics.outputs == 0
        assert not algo._seen_masks  # below-theta masks are not remembered

    def test_kernel_and_reference_emit_agree(self):
        rng = random.Random(3)
        for trial in range(10):
            graph = erdos_renyi_gnp(10, rng.uniform(0.4, 0.8), seed=1700 + trial)
            ledger = FastQC(graph, 0.8, 3)
            reference = ReferenceFastQC(graph, 0.8, 3)
            assert ledger.enumerate() == reference.enumerate()
            assert (ledger.statistics.outputs_suppressed_by_maximality
                    == reference.statistics.outputs_suppressed_by_maximality)


class TestCompactSubproblems:
    def test_compact_subgraph_matches_induced(self):
        """A halo-free payload's rows are the induced subgraph ``G[mask]``."""
        rng = random.Random(5)
        for trial in range(10):
            graph = erdos_renyi_gnp(15, rng.uniform(0.2, 0.6), seed=1800 + trial)
            mask = 0
            for index in range(graph.vertex_count):
                if rng.random() < 0.6:
                    mask |= 1 << index
            if not mask:
                continue
            members = list(iter_bits(mask))
            payload = CompactSubproblem.from_members(graph, members[0], members, mask)
            induced = graph.induced_subgraph(graph.labels_of_mask(mask))
            # Local index order follows global index order (tie-break parity).
            assert list(payload.labels) == [graph.label_of(i) for i in members]
            assert payload.vertex_count == induced.vertex_count
            edges = {frozenset((payload.labels[u], payload.labels[v]))
                     for u in range(payload.vertex_count)
                     for v in iter_bits(payload.adjacency_mask(u))}
            assert edges == set(map(frozenset, induced.edges()))
            assert payload.halo_labels == () and payload.maximality_rows() is payload.rows

    def test_from_dense_adjacency_round_trip(self):
        graph = erdos_renyi_gnm(12, 30, seed=46)
        rebuilt = Graph.from_dense_adjacency(graph.vertices(),
                                             graph.adjacency_masks())
        assert rebuilt.vertices() == graph.vertices()
        assert rebuilt.edge_count == graph.edge_count
        assert rebuilt.adjacency_masks() == graph.adjacency_masks()
        assert rebuilt.adjacency_set(0) == graph.adjacency_set(0)

    def test_compact_payloads_reproduce_subproblems(self):
        graph = erdos_renyi_gnm(40, 120, seed=47)
        driver = DCFastQC(graph, 0.8, 4)
        payloads = [payload for payload, _route in driver._iter_payloads()]
        assert payloads, "the instance must produce at least one subproblem"
        merged: list[frozenset] = []
        for payload in payloads:
            assert isinstance(payload, CompactSubproblem)
            assert payload.vertex_count == len(payload.labels)
            engine = FastQC(payload, 0.8, 4)
            merged.extend(engine.enumerate_branch(payload.initial_branch()))
        # A search that checks maximality against the ball alone finds every
        # sequential candidate (the sequential driver may suppress a few more
        # via its full-graph maximality filter).
        assert set(DCFastQC(graph, 0.8, 4).enumerate()) <= set(merged)


class TestShrinkLedgers:
    """The store-free shrinking passes against the oracle's mask rules."""

    GRID = [(0.5, 2), (0.7, 3), (0.8, 4), (0.9, 5), (1.0, 3)]

    @staticmethod
    def _random_ball(graph: Graph, rng: random.Random) -> tuple[int, int]:
        ball = 0
        for index in range(graph.vertex_count):
            if rng.random() < 0.8:
                ball |= 1 << index
        if not ball:
            ball = 1
        root = rng.choice(list(iter_bits(ball)))
        return root, ball

    def test_rounds_match_mask_rules_pass_for_pass(self):
        """Random interleavings of one-hop and two-hop passes survive exactly
        the vertices the mask-based reference rules keep, on the dict graph
        and on its CSR twin (whose one-hop pass reads ``restricted_counts``)."""
        rng = random.Random(5)
        for trial in range(25):
            graph = erdos_renyi_gnp(16, rng.uniform(0.2, 0.6), seed=4300 + trial)
            twin = CSRGraph.from_edge_stream(graph.edges(),
                                             vertices=graph.vertices())
            gamma, theta = rng.choice(self.GRID)
            oracle = ReferenceDCFastQC(graph, gamma, theta)
            required = degree_threshold(gamma, theta)
            root, ball = self._random_ball(graph, rng)
            alive = ball
            for _ in range(4):
                if rng.random() < 0.5:
                    expected = oracle._one_hop_prune(root, alive, required)
                    removals = [one_hop_pass(backend, root, alive, required)
                                for backend in (graph, twin)]
                else:
                    threshold = two_hop_pruning_threshold(
                        gamma, theta, alive.bit_count())
                    expected = oracle._two_hop_prune(root, alive)
                    removals = [two_hop_pass(backend, root, alive, threshold)
                                for backend in (graph, twin)]
                for removal in removals:
                    assert removal & ~alive == 0
                    assert alive & ~removal == expected
                alive = expected

    def test_full_shrink_matches_reference_kernel(self):
        """DCFastQC's shrinking equals the oracle's mask rounds bit-for-bit."""
        rng = random.Random(9)
        for trial in range(20):
            graph = erdos_renyi_gnp(20, rng.uniform(0.2, 0.55), seed=4600 + trial)
            gamma, theta = rng.choice(self.GRID)
            for framework in ("dc", "basic-dc"):
                for max_rounds in (0, 1, 2, 4):
                    kernel = DCFastQC(graph, gamma, theta, framework=framework,
                                      max_rounds=max_rounds)
                    reference = ReferenceDCFastQC(graph, gamma, theta,
                                                  framework=framework,
                                                  max_rounds=max_rounds)
                    core = kernel._core_reduction_mask()
                    for root in iter_bits(core):
                        ball = two_hop_mask(graph, root, core)
                        assert (kernel._shrink_subproblem(root, ball)
                                == reference._shrink_subproblem(root, ball)), (
                            trial, gamma, theta, framework, max_rounds, root)

    def test_shrink_counters_populated(self):
        graph = erdos_renyi_gnm(40, 130, seed=71)
        algo = DCFastQC(graph, 0.8, 4)
        algo.enumerate()
        stats = algo.statistics
        assert stats.shrink_rounds > 0
        reference = ReferenceDCFastQC(graph, 0.8, 4)
        reference.enumerate()
        assert reference.statistics.shrink_rounds == 0

    def test_reference_driver_never_fans_out(self):
        graph = erdos_renyi_gnm(40, 130, seed=71)
        expected = ReferenceDCFastQC(graph, 0.8, 4).enumerate()
        runner = ReferenceDCFastQC(graph, 0.8, 4, workers=2, parallel="branch")
        assert runner.enumerate() == expected
        assert runner.mode_selected == "sequential"


class TestLedgerBackends:
    """The width rule picking list or ``array('i')`` ledger buffers."""

    def test_auto_picks_buffer_type_by_width(self):
        import array

        wide = kernel_module.AUTO_ARRAY_MIN_WIDTH
        assert isinstance(kernel_module._make_ledger([0] * 4), list)
        assert isinstance(kernel_module._make_ledger([0] * wide), array.array)

    @pytest.mark.parametrize("backend", ["array", "list"])
    def test_enumeration_identical_under_every_backend(self, backend, monkeypatch):
        from repro.baselines.quickplus import QuickPlus

        graph = erdos_renyi_gnm(26, 80, seed=61)
        baseline_fastqc = ReferenceFastQC(graph, 0.8, 3).enumerate()
        baseline_quick = ReferenceQuickPlus(graph, 0.8, 3).enumerate()
        # Move the width threshold so every ledger takes one buffer type.
        width = 0 if backend == "array" else sys.maxsize
        monkeypatch.setattr(kernel_module, "AUTO_ARRAY_MIN_WIDTH", width)
        assert FastQC(graph, 0.8, 3).enumerate() == baseline_fastqc
        assert QuickPlus(graph, 0.8, 3).enumerate() == baseline_quick
        assert DCFastQC(graph, 0.8, 3).enumerate() \
            == ReferenceDCFastQC(graph, 0.8, 3).enumerate()


def _halo_payloads(graph, gamma, theta) -> list[CompactSubproblem]:
    """Every subproblem of a run as a ball-plus-halo payload (the layout a
    CSR-backed run searches and ships to workers)."""
    return [CompactSubproblem.from_ball(graph, root, mask)
            for root, mask in DCFastQC(graph, gamma, theta)._iter_subproblems()]


class TestMaximalityHalo:
    """CompactSubproblem's one-hop halo reproduces full-graph maximality."""

    def test_payloads_carry_halo(self):
        graph = erdos_renyi_gnm(40, 120, seed=47)
        payloads = _halo_payloads(graph, 0.8, 4)
        assert payloads
        for payload in payloads:
            assert len(payload.halo_labels) == len(payload.halo_adjacency)
            ball = set(payload.labels)
            # Halo = outside neighbours of ball members, ascending by global
            # index (the payload layout steal workers inherit), with their
            # adjacency into the ball.
            expected_halo = set()
            for label in payload.labels:
                expected_halo |= graph.neighbors(label)
            expected_halo -= ball
            assert list(payload.halo_labels) == sorted(expected_halo,
                                                       key=graph.index_of)
            for label, into_ball in zip(payload.halo_labels, payload.halo_adjacency):
                neighbours = {payload.labels[i] for i in iter_bits(into_ball)}
                assert neighbours == graph.neighbors(label) & ball

    def test_from_ball_matches_full_graph_mask_construction(self):
        """The one-pass extraction equals the halo built from full-graph
        masks (union of member masks minus the ball, ascending by index)."""
        graph = erdos_renyi_gnm(50, 160, seed=49)
        core = DCFastQC(graph, 0.7, 3)._core_reduction_mask()
        for root in list(iter_bits(core))[:10]:
            ball = two_hop_mask(graph, root, core)
            payload = CompactSubproblem.from_ball(graph, root, ball)
            members = list(iter_bits(ball))
            halo_free = CompactSubproblem.from_members(graph, root, members, ball)
            assert payload.labels == halo_free.labels
            assert payload.rows == halo_free.rows
            assert payload.root_local == halo_free.root_local \
                == (ball & ((1 << root) - 1)).bit_count()
            local_of = {g: local for local, g in enumerate(iter_bits(ball))}
            outside = 0
            for member in local_of:
                outside |= graph.adjacency_mask(member)
            outside &= ~ball
            assert payload.halo_labels == tuple(graph.label_of(v)
                                                for v in iter_bits(outside))
            assert payload.halo_adjacency == tuple(
                sum(1 << local_of[m] for m in iter_bits(graph.adjacency_mask(v) & ball))
                for v in iter_bits(outside))

    def test_maximality_graph_contains_ball_and_halo_edges(self):
        graph = erdos_renyi_gnm(30, 90, seed=48)
        payload = _halo_payloads(graph, 0.8, 3)[0]
        assert payload.halo_labels
        rows = payload.maximality_rows()
        assert rows[:payload.vertex_count] != list(payload.rows)  # halo bits spliced in
        combined = Graph.from_dense_adjacency(payload.labels + payload.halo_labels, rows)
        assert set(combined.vertices()) \
            == set(payload.labels) | set(payload.halo_labels)
        for u, v in combined.edges():
            assert graph.has_edge(u, v)
        # Every ball-halo edge of the input graph is present.
        ball = set(payload.labels)
        for label in payload.halo_labels:
            for neighbour in graph.neighbors(label) & ball:
                assert combined.has_edge(label, neighbour)

    @pytest.mark.parametrize("seed,gamma,theta",
                             [(47, 0.8, 4), (99, 0.9, 3), (123, 0.6, 3)])
    def test_worker_batches_equal_sequential_batches(self, seed, gamma, theta):
        """With the halo, a worker that never sees the full graph emits the
        sequential driver's candidate lists exactly, batch for batch (the
        ROADMAP's parallel-maximality parity item)."""
        graph = erdos_renyi_gnm(40, 120, seed=seed)
        sequential = DCFastQC(graph, gamma, theta)
        batches = list(sequential.iter_candidate_batches())
        payloads = _halo_payloads(graph, gamma, theta)
        assert len(payloads) == len(batches)
        for payload, batch in zip(payloads, batches):
            engine = FastQC(payload, gamma, theta,
                            maximality_rows=payload.maximality_rows())
            assert engine.enumerate_branch(payload.initial_branch()) == batch


def _current_stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth
