"""Tests for the CSR large-graph backend (repro.core.csr).

The contract under test: a :class:`CSRGraph` is a read-only facade over flat
``indptr`` / ``indices`` arrays whose every accessor — and therefore every
enumeration answer — is identical to a dict/bitmask :class:`Graph` of the
same content.  The differential below covers the full dataset registry.
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import tracemalloc
from array import array
from collections.abc import Mapping
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.csr as csr_module
import repro.core.dcfastqc as dcfastqc_module
import repro.core.fastqc as fastqc_module
import repro.resilience.retry as retry_module
from repro import Graph, GraphError, MQCEEngine
from repro.api import QuerySpec
from repro.core.dcfastqc import CompactSubproblem, DCFastQC
from repro.core.csr import (
    CSRGraph,
    build_csr_arrays,
    csr_restricted_degeneracy_order,
    iter_mask_indices,
)
from repro.datasets.registry import REGISTRY, default_parameters, get_spec, load_dataset
from repro.engine.fingerprint import graph_fingerprint
from repro.engine.prepared import PreparedGraph
from repro.graph import (
    connected_components,
    core_numbers,
    degeneracy,
    degeneracy_ordering,
    degeneracy_ordering_within,
    gnm_csr_graph,
    graph_statistics,
    ingest_edge_list,
    is_connected,
    iter_bits,
    powerlaw_csr_graph,
    read_edge_list,
    two_hop_mask,
    write_edge_list,
)
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    planted_quasi_clique_graph,
    preferential_attachment_edges,
)
from repro.extensions.parallel import run_compact_subproblem
from repro.pipeline.mqce import run_enumeration


SRC = Path(__file__).resolve().parent.parent / "src"


def csr_of(graph: Graph) -> CSRGraph:
    """Rebuild a dict graph as a CSRGraph with the same index space."""
    return CSRGraph.from_edge_stream(graph.edges(), vertices=graph.vertices())


@pytest.fixture(scope="module")
def pair() -> tuple[Graph, CSRGraph]:
    graph = barabasi_albert(120, 4, seed=9)
    return graph, csr_of(graph)


# ----------------------------------------------------------------------
# Accessor parity
# ----------------------------------------------------------------------
def test_counts_and_vertices_match(pair):
    graph, csr = pair
    assert csr.vertex_count == graph.vertex_count
    assert csr.edge_count == graph.edge_count
    assert csr.vertices() == graph.vertices()
    assert len(csr) == len(graph)
    assert list(csr) == list(graph)
    assert csr.density() == graph.density()


def test_adjacency_accessors_match(pair):
    graph, csr = pair
    for index in range(graph.vertex_count):
        assert csr.adjacency_mask(index) == graph.adjacency_mask(index)
        assert csr.adjacency_set(index) == graph.adjacency_set(index)
        label = graph.label_of(index)
        assert csr.neighbors(label) == graph.neighbors(label)
        assert csr.degree(label) == graph.degree(label)
    assert csr.degree_sequence() == graph.degree_sequence()
    assert csr.max_degree() == graph.max_degree()


def test_lazy_mask_table_is_indexable_like_a_list(pair):
    graph, csr = pair
    masks = csr.adjacency_masks()
    assert len(masks) == graph.vertex_count
    assert masks[3] == graph.adjacency_mask(3)
    assert masks[-1] == graph.adjacency_mask(graph.vertex_count - 1)
    assert list(masks) == list(graph.adjacency_masks())
    sets = csr._adjacency_sets
    assert len(sets) == graph.vertex_count
    assert sets[5] == graph.adjacency_set(5)
    assert list(sets) == [graph.adjacency_set(i)
                          for i in range(graph.vertex_count)]


def test_edge_queries_match(pair):
    graph, csr = pair
    assert set(map(frozenset, csr.edges())) == set(map(frozenset, graph.edges()))
    for u, v in graph.edges()[:50]:
        assert csr.has_edge(u, v) and csr.has_edge(v, u)
    assert not csr.has_edge(0, "no-such-vertex")
    non_edge = next((u, v) for u in graph.vertices() for v in graph.vertices()
                    if u != v and not graph.has_edge(u, v))
    assert not csr.has_edge(*non_edge)


def test_mask_helpers_match(pair):
    graph, csr = pair
    some = graph.vertices()[10:40]
    assert csr.mask_of(some) == graph.mask_of(some)
    mask = graph.mask_of(some)
    assert csr.labels_of_mask(mask) == graph.labels_of_mask(mask)
    assert csr.full_mask() == graph.full_mask()
    with pytest.raises(GraphError):
        csr.mask_of(["no-such-vertex"])
    with pytest.raises(GraphError):
        csr.index_of("no-such-vertex")


def test_label_index_agrees_with_the_dict_index():
    """One file of non-canonical int text, canonical ints and an int beyond
    64 bits (so the labels stay a list): lookups keep the dict's semantics,
    ``1.0`` and ``True`` included, on both backends."""
    text = "01 1\n+1 1\n1 -0\n-0 a\na 18446744073709551617\n1 a\n"
    graph = read_edge_list(io.StringIO(text))
    csr = ingest_edge_list(io.StringIO(text))
    assert csr.vertices() == graph.vertices() == ["01", 1, "+1", "-0", "a", 2**64 + 1]
    assert isinstance(csr._labels, list)
    for label in [*graph.vertices(), 1.0, True]:
        assert label in csr
        assert csr.index_of(label) == graph.index_of(label)
        assert csr.neighbors(label) == graph.neighbors(label)
    assert csr.mask_of([1.0, "a", 2**64 + 1]) == graph.mask_of([1.0, "a", 2**64 + 1])
    assert csr.has_edge(True, "a") and not csr.has_edge("1", "a")
    for unknown in (0, "0", "1", 2**64, 1.5, None, (1,)):
        assert unknown not in csr and unknown not in graph
        for backend in (csr, graph):
            with pytest.raises(GraphError, match="unknown vertex"):
                backend.index_of(unknown)
            with pytest.raises(GraphError, match="unknown vertex"):
                backend.mask_of([1, unknown])
            with pytest.raises(GraphError, match="unknown vertex"):
                backend.neighbors(unknown)


def test_int_labels_live_in_an_array_and_keep_dict_semantics():
    """64-bit int labels are stored in one ``array('q')``; labels of equal
    hash (``hash(-1) == hash(-2)``, ``hash(2**61 - 1) == hash(0)``) stay
    apart, equal ones are duplicates, and a bool keeps its type."""
    labels = [-1, -2, 0, 2**61 - 1, 2**63 - 1, -2**63, 7]
    edges = list(zip(labels, labels[1:]))
    csr = CSRGraph.from_edge_stream(edges, vertices=labels)
    graph = Graph(edges, vertices=labels)
    assert isinstance(csr._labels, array) and csr.vertices() == labels
    for label in labels:
        assert csr.index_of(label) == graph.index_of(label)
        assert csr.neighbors(label) == graph.neighbors(label)
    assert csr.index_of(7.0) == csr.index_of(7) and -3 not in csr
    indptr, indices, _ = build_csr_arrays(2, [0], [1])
    for duplicate in ([1, 1.0], [1, True], ["a", "a"]):
        with pytest.raises(GraphError, match="duplicate"):
            CSRGraph(duplicate, indptr, indices)
    flagged = CSRGraph([True, 2], indptr, indices)
    assert flagged.vertices() == [True, 2] and type(flagged.label_of(0)) is bool


def test_mask_cache_stays_within_its_byte_budget(monkeypatch):
    csr = powerlaw_csr_graph(2_000, 3, seed=13)
    budget = 10 * csr._mask_nbytes + 5
    monkeypatch.setattr(csr_module, "MASK_CACHE_BYTES", budget)
    for index in range(0, csr.vertex_count, 7):
        assert csr.adjacency_mask(index) == csr.mask_of(csr.neighbors(csr.label_of(index)))
        cached = sum((mask.bit_length() + 7) // 8 for mask in csr._mask_cache.values())
        assert cached <= budget
    assert len(csr._mask_cache) == 10


def test_iter_mask_indices_matches_iter_bits():
    for mask in (0, 1, 0b1010110, (1 << 200) | (1 << 64) | (1 << 63) | 7):
        assert list(iter_mask_indices(mask)) == list(iter_bits(mask))


def test_statistics_match(pair):
    graph, csr = pair
    assert graph_statistics(csr) == graph_statistics(graph)


# ----------------------------------------------------------------------
# Frozen mutation surface and thaw
# ----------------------------------------------------------------------
def test_mutations_raise_typed_graph_error(pair):
    _, csr = pair
    for operation in (lambda: csr.add_vertex("x"),
                      lambda: csr.add_edge(0, 999),
                      lambda: csr.remove_edge(0, 1),
                      lambda: csr.remove_vertex(0)):
        with pytest.raises(GraphError, match="immutable.*thaw"):
            operation()


def test_thaw_round_trips_and_is_mutable(pair):
    graph, csr = pair
    thawed = csr.thaw()
    assert type(thawed) is Graph
    assert thawed.vertices() == graph.vertices()
    assert set(map(frozenset, thawed.edges())) == set(map(frozenset, graph.edges()))
    thawed.add_edge("new-a", "new-b")  # mutability restored
    assert thawed.has_edge("new-a", "new-b")
    assert not csr.has_edge("new-a", "new-b")


def test_copy_shares_buffers_and_matches(pair):
    _, csr = pair
    clone = csr.copy()
    assert isinstance(clone, CSRGraph)
    assert clone.indptr is csr.indptr and clone.indices is csr.indices
    assert clone._labels is csr._labels
    assert clone._hashes is csr._hashes and clone._positions is csr._positions
    assert clone.vertices() == csr.vertices()
    assert clone.edge_count == csr.edge_count


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_build_rejects_self_loops_and_bad_shapes():
    with pytest.raises(GraphError, match="self-loop"):
        build_csr_arrays(3, [0, 1], [0, 2])
    with pytest.raises(GraphError, match="self-loops"):
        CSRGraph.from_edge_stream([("a", "a")])
    indptr, indices, _ = build_csr_arrays(2, [0], [1])
    with pytest.raises(GraphError, match="indptr"):
        CSRGraph(["a", "b", "c"], indptr, indices)
    with pytest.raises(GraphError, match="duplicate"):
        CSRGraph(["a", "a"], indptr, indices)


def test_duplicate_and_reversed_pairs_deduplicate():
    csr = CSRGraph.from_edge_stream([("a", "b"), ("b", "a"), ("a", "b"),
                                     ("b", "c")])
    assert csr.edge_count == 2
    assert csr.adjacency_set(csr.index_of("b")) == {csr.index_of("a"),
                                                    csr.index_of("c")}


def test_rows_are_sorted_ascending():
    csr = CSRGraph.from_edge_stream([(5, 1), (5, 9), (5, 0), (5, 3)])
    row = list(csr.indices[csr.indptr[0]:csr.indptr[1]])
    assert row == sorted(row)


@st.composite
def endpoint_pairs(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and index pairs, some repeated in either orientation."""
    n = draw(st.integers(min_value=0, max_value=30))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=120))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return n, pairs + [(v, u) for u, v in repeats]


@settings(max_examples=100, deadline=None)
@given(case=endpoint_pairs())
def test_counting_sort_build_matches_dict_graph(case):
    """Offsets, sorted rows and edge count equal the dict graph's adjacency,
    whatever the order, orientation and repetition of the pairs."""
    n, pairs = case
    indptr, indices, edge_count = build_csr_arrays(
        n, array("q", [u for u, _ in pairs]), array("q", [v for _, v in pairs]))
    graph = Graph(pairs, vertices=range(n))
    rows = [sorted(graph.adjacency_set(i)) for i in range(n)]
    assert list(indptr) == [0, *accumulate(map(len, rows))]
    assert list(indices) == [j for row in rows for j in row]
    assert edge_count == graph.edge_count


def test_empty_and_isolated_vertices():
    empty = CSRGraph.from_edge_stream([])
    assert empty.vertex_count == 0 and empty.edge_count == 0
    assert empty.max_degree() == 0 and empty.full_mask() == 0
    lone = CSRGraph.from_edge_stream([("a", "b")], vertices=["z", "a", "b"])
    assert lone.vertices() == ["z", "a", "b"]
    assert lone.degree("z") == 0
    assert connected_components(lone) == [frozenset({"z"}),
                                          frozenset({"a", "b"})]


def test_from_csr_classmethod_builds_csr_graph():
    indptr, indices, edge_count = build_csr_arrays(3, [0, 1], [1, 2])
    graph = Graph.from_csr(["a", "b", "c"], indptr, indices,
                           edge_count=edge_count)
    assert isinstance(graph, CSRGraph)
    assert graph.edge_count == 2
    assert graph.adjacency_mask(1) == 0b101
    # Plain lists are copied into the int64 buffers the fingerprint hashes.
    listed = Graph.from_csr(["a", "b", "c"], list(indptr), list(indices))
    assert listed.indptr == indptr and listed.indices == indices
    assert graph_fingerprint(listed) == graph_fingerprint(graph)


# ----------------------------------------------------------------------
# CSR-native algorithm parity
# ----------------------------------------------------------------------
def test_degeneracy_machinery_matches(pair):
    graph, csr = pair
    assert degeneracy_ordering(csr) == degeneracy_ordering(graph)
    assert core_numbers(csr) == core_numbers(graph)
    assert degeneracy(csr) == degeneracy(graph)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=0, max_value=40),
       p=st.sampled_from([0.1, 0.25, 0.5, 0.8]),
       seed=st.integers(min_value=0, max_value=10_000))
def test_flat_buffer_peel_matches_the_bitmask_peel(n, p, seed):
    """Same ordering (every tie-break included) and core numbers."""
    graph = erdos_renyi_gnp(n, p, seed=seed)
    csr = csr_of(graph)
    assert degeneracy_ordering(csr) == degeneracy_ordering(graph)
    assert core_numbers(csr) == core_numbers(graph)


@pytest.mark.parametrize("backend", ["dict", "csr"])
def test_prepared_core_numbers_are_a_read_only_view(backend):
    graph = load_dataset("enron")
    if backend == "csr":
        graph = csr_of(graph)
    view = PreparedGraph(graph).core_numbers
    assert isinstance(view, Mapping)
    assert view == core_numbers(graph) and core_numbers(graph) == view
    assert len(view) == graph.vertex_count and list(view) == graph.vertices()
    assert "no-such-vertex" not in view
    with pytest.raises(KeyError):
        view["no-such-vertex"]
    with pytest.raises(TypeError):
        view[graph.label_of(0)] = 0


def test_ingest_and_prepare_keep_no_python_object_per_vertex(tmp_path):
    """Guard without wall-clock time: an ingested and prepared int-label graph
    holds its labels, label index, rows and core numbers in flat buffers, at
    most 100 live bytes per vertex (a ``{label: index}`` dict alone is ~80)."""
    path = tmp_path / "powerlaw.edges"
    with open(path, "w", encoding="ascii") as handle:
        for u, v in preferential_attachment_edges(20_000, 3, seed=13):
            handle.write(f"{u} {v}\n")
    PreparedGraph(ingest_edge_list(io.StringIO("1 2\n2 3\n"))).prepare()  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = PreparedGraph(ingest_edge_list(path)).prepare()
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert live / prepared.graph.vertex_count <= 100


def test_components_and_connectivity_match():
    graph = Graph([(1, 2), (2, 3), (10, 11), (12, 13), (13, 10)])
    graph.add_vertex(99)
    csr = csr_of(graph)
    assert connected_components(csr) == connected_components(graph)
    assert is_connected(csr) == is_connected(graph)
    for sub in ([1, 2, 3], [10, 11, 12], [1, 2, 10, 11]):
        assert is_connected(csr, sub) == is_connected(graph, sub)
    assert not is_connected(csr, [1, 2, 10, 11])
    for backend in (graph, csr):
        with pytest.raises(GraphError):
            is_connected(backend, [1, 2, 404])
    single = csr_of(Graph([(1, 2), (2, 3)]))
    assert is_connected(single)


def test_two_hop_mask_matches(pair):
    graph, csr = pair
    allowed = graph.mask_of(graph.vertices()[: graph.vertex_count // 2])
    for center in range(0, graph.vertex_count, 7):
        assert two_hop_mask(csr, center, allowed) == \
            two_hop_mask(graph, center, allowed)
        full = graph.full_mask()
        assert two_hop_mask(csr, center, full) == \
            two_hop_mask(graph, center, full)


def test_compact_subgraph_matches(pair):
    """Subproblem rows walked from CSR rows equal those read from bitmasks."""
    graph, csr = pair
    mask = graph.mask_of(graph.vertices()[20:60])
    members = list(iter_bits(mask))
    from_dict = CompactSubproblem.from_members(graph, members[3], members, mask)
    from_csr = CompactSubproblem.from_ball(csr, members[3], mask)
    assert from_csr.labels == from_dict.labels
    assert from_csr.rows == from_dict.rows
    assert from_csr.root_local == from_dict.root_local == 3


def rebuilt_subgraph(graph: Graph, mask: int) -> Graph:
    """``G[mask]`` as a new graph whose indices ascend by global index."""
    members = list(iter_bits(mask))
    local_of = {index: local for local, index in enumerate(members)}
    rows = [sum(1 << local_of[j] for j in iter_bits(graph.adjacency_mask(i) & mask))
            for i in members]
    return Graph.from_dense_adjacency([graph.label_of(i) for i in members], rows)


@st.composite
def graphs_and_masks(draw) -> tuple[Graph, int]:
    n = draw(st.integers(min_value=0, max_value=40))
    p = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    graph = erdos_renyi_gnp(n, p, seed=draw(st.integers(min_value=0, max_value=10_000)))
    full = graph.full_mask()
    mask = draw(st.one_of(st.just(0), st.just(full),
                          st.integers(min_value=0, max_value=full)))
    return graph, mask


@settings(max_examples=120, deadline=None)
@given(case=graphs_and_masks())
def test_restricted_degeneracy_order_equals_compact_route(case):
    """Both routes of the restricted ordering, and the CSR-native peel, order
    ``G[mask]`` exactly like :func:`degeneracy_ordering` on a rebuilt copy."""
    graph, mask = case
    csr = csr_of(graph)
    expected = degeneracy_ordering(rebuilt_subgraph(graph, mask))
    assert degeneracy_ordering_within(graph, mask) == expected
    assert degeneracy_ordering_within(csr, mask) == expected
    native = [csr.label_of(i) for i in csr_restricted_degeneracy_order(csr, mask)]
    assert native == expected


def test_restricted_counts_match_mask_popcounts(pair):
    graph, csr = pair
    members = graph.mask_of(graph.vertices()[15:70])
    target = graph.mask_of(graph.vertices()[0:50])
    counts = csr.restricted_counts(members, target)
    assert set(counts) == set(iter_bits(members))
    for v in iter_bits(members):
        assert counts[v] == (graph.adjacency_mask(v) & target).bit_count()
    self_counts = csr.restricted_counts(members, members)
    for v in iter_bits(members):
        assert self_counts[v] == (graph.adjacency_mask(v) & members).bit_count()


# ----------------------------------------------------------------------
# Full-registry enumeration differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_differential_csr_answers_match(name):
    spec = get_spec(name)
    graph = load_dataset(name)
    csr = csr_of(graph)
    query = QuerySpec(gamma=spec.default_gamma, theta=spec.default_theta)
    expected = run_enumeration(graph, query)
    actual = run_enumeration(csr, query)
    assert set(actual.maximal_quasi_cliques) == \
        set(expected.maximal_quasi_cliques)
    assert actual.candidate_count == expected.candidate_count


def test_quickplus_and_fastqc_match_on_csr():
    graph = load_dataset("ca-grqc")
    csr = csr_of(graph)
    for algorithm in ("fastqc", "quickplus"):
        query = QuerySpec(gamma=0.85, theta=6, algorithm=algorithm)
        expected = run_enumeration(graph, query)
        actual = run_enumeration(csr, query)
        assert set(actual.maximal_quasi_cliques) == \
            set(expected.maximal_quasi_cliques), algorithm


def test_budgeted_query_on_csr_graph_reports_truncation():
    csr = powerlaw_csr_graph(3000, 3, seed=2)
    result = run_enumeration(csr, QuerySpec(gamma=0.85, theta=4,
                                            time_limit=1e-9))
    assert result.truncated


# ----------------------------------------------------------------------
# Sequential DC on CSR: subproblems check maximality against their halo
# ----------------------------------------------------------------------
# On a CSR graph sequential DCFastQC enumerates the work-stealing payloads
# (ball plus one-hop halo); on a dict graph it checks the full graph.  Both
# must emit the same batches with the same counters.

SKEW_GAMMA, SKEW_THETA = 0.9, 9


@pytest.fixture(scope="module")
def planted_skew() -> tuple[Graph, CSRGraph]:
    """One 24-vertex gamma=0.9 community in a sparse 800-vertex background:
    a single subproblem holds almost all of the ~1.4k branches."""
    graph = planted_quasi_clique_graph(800, 2000, [24], SKEW_GAMMA, seed=11)
    return graph, csr_of(graph)


def batches_and_counters(graph: Graph, gamma: float, theta: int):
    dc = DCFastQC(graph, gamma, theta)
    batches = list(dc.iter_candidate_batches())
    stats = dc.statistics
    return batches, (stats.branches_explored, stats.outputs,
                     stats.outputs_suppressed_by_maximality)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_payloads_match_dict_field_for_field(name):
    graph = load_dataset(name)
    gamma, theta = default_parameters(name)
    expected = list(DCFastQC(graph, gamma, theta).iter_compact_subproblems())
    actual = list(DCFastQC(csr_of(graph), gamma, theta).iter_compact_subproblems())
    assert len(actual) == len(expected)
    for mine, theirs in zip(actual, expected):
        assert mine.root_local == theirs.root_local
        assert mine.labels == theirs.labels
        assert mine.rows == theirs.rows
        assert mine.halo_labels == theirs.halo_labels  # same order, too
        assert mine.halo_adjacency == theirs.halo_adjacency


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_csr_batches_match_dict_batches(name):
    graph = load_dataset(name)
    gamma, theta = default_parameters(name)
    assert batches_and_counters(csr_of(graph), gamma, theta) == \
        batches_and_counters(graph, gamma, theta)


def test_planted_skew_csr_batches_match_dict_batches(planted_skew):
    graph, csr = planted_skew
    batches, counters = batches_and_counters(csr, SKEW_GAMMA, SKEW_THETA)
    assert (batches, counters) == batches_and_counters(graph, SKEW_GAMMA, SKEW_THETA)
    assert counters[2] > 0  # the halo check really suppressed outputs


MAXIMALITY_CHECKS = ("ledger_satisfies_maximality_necessary_condition",
                     "mask_satisfies_maximality_necessary_condition")


def test_sequential_csr_run_checks_maximality_against_halo_graphs(
        planted_skew, monkeypatch):
    """Guard: every maximality decision of a sequential CSR run (the ledger
    check on T1 outputs, the mask check on G[S] outputs) targets one
    subproblem's ball-plus-halo graph, never the |V|-vertex input graph."""
    _graph, csr = planted_skew
    targets = []

    def recording(check):
        def record(rows, *args):
            targets.append((rows is csr.adjacency_masks(), len(rows)))
            return check(rows, *args)
        return record

    for name in MAXIMALITY_CHECKS:
        monkeypatch.setattr(fastqc_module, name,
                            recording(getattr(fastqc_module, name)))
    dc = DCFastQC(csr, SKEW_GAMMA, SKEW_THETA)
    dc.enumerate()
    halo_sizes = {len(payload.labels) + len(payload.halo_labels) for payload in
                  DCFastQC(csr, SKEW_GAMMA, SKEW_THETA).iter_compact_subproblems()}
    stats = dc.statistics
    assert len(targets) == stats.outputs + stats.outputs_suppressed_by_maximality
    assert not any(is_input for is_input, _ in targets)
    assert {row_count for _, row_count in targets} <= halo_sizes
    assert max(halo_sizes) < csr.vertex_count


def test_sequential_csr_run_builds_labels_only_for_kept_outputs(
        planted_skew, monkeypatch):
    """Guard without wall-clock time: the emission path decides size, dedup
    and maximality on local masks.  Subproblem graphs build labels once per
    kept output, and nothing maps labels back to a mask."""
    _graph, csr = planted_skew
    calls = {"labels_of_mask": 0, "mask_of": 0}

    def counting(name, method):
        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    # Subproblems are searched as compact payloads.  The CSR input graph
    # overrides both Graph methods, so the core reduction's own calls on it
    # are not counted.
    for name in calls:
        monkeypatch.setattr(Graph, name, counting(name, getattr(Graph, name)))
    monkeypatch.setattr(CompactSubproblem, "labels_of_mask",
                        counting("labels_of_mask", CompactSubproblem.labels_of_mask))
    dc = DCFastQC(csr, SKEW_GAMMA, SKEW_THETA)
    dc.enumerate()
    stats = dc.statistics
    assert stats.outputs_suppressed_by_maximality > 0
    assert calls == {"labels_of_mask": stats.outputs, "mask_of": 0}


def test_dc_queries_build_no_graph_per_subproblem(monkeypatch):
    """Guard without wall-clock time: DC searches the compact rows and orders
    the core in index space.  No Graph is built (CSRGraph and
    ``from_dense_adjacency`` run ``Graph.__init__`` too) during a DC query on
    a dict graph or its CSR twin, nor by the per-subproblem reference over
    the payloads; the restricted ordering runs once per query, through the
    module namespace the perfbench timers wrap."""
    graph = load_dataset("enron")
    gamma, theta = default_parameters("enron")
    csr = csr_of(graph)
    built: list[str] = []
    orderings: list[int] = []
    graph_init = Graph.__init__
    ordering_within = dcfastqc_module.degeneracy_ordering_within

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        graph_init(self, *args, **kwargs)

    def counting_ordering(*args):
        orderings.append(1)
        return ordering_within(*args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(dcfastqc_module, "degeneracy_ordering_within",
                        counting_ordering)
    for target in (graph, csr):
        dc = DCFastQC(target, gamma, theta)
        assert dc.enumerate()
        assert dc.statistics.subproblems > 1
    assert built == []
    assert len(orderings) == 2
    payloads = list(DCFastQC(graph, gamma, theta).iter_compact_subproblems())
    for payload in payloads:
        run_compact_subproblem(payload, gamma, theta)
    assert len(payloads) > 1 and built == []


@pytest.mark.parametrize("backend", ["dict", "csr"])
def test_subproblem_sizes_count_each_searched_subproblem_once(backend):
    """The size histogram holds one entry per searched subproblem; every
    root's sizes stay in the DC statistics' subproblem records."""
    graph = load_dataset("enron")
    theta = 6
    dc = DCFastQC(graph if backend == "dict" else csr_of(graph), 0.9, theta)
    dc.enumerate()
    stats = dc.statistics
    records = dc.dc_statistics.subproblem_records
    searched = [record.refined_size for record in records
                if record.refined_size >= theta]
    assert len(records) > len(searched) == stats.subproblems > 0
    assert stats.subproblem_sizes.count == stats.subproblems
    assert stats.subproblem_sizes.total == sum(searched)
    assert stats.as_dict()["max_subproblem_size"] == max(searched)


def test_engine_stream_over_csr_yields_the_answer(planted_skew):
    graph, csr = planted_skew
    spec = QuerySpec(gamma=SKEW_GAMMA, theta=SKEW_THETA)
    expected = run_enumeration(graph, spec).maximal_quasi_cliques
    streamed = list(MQCEEngine().stream(csr, spec=spec, use_cache=False))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == set(expected)


class TickingClock:
    """Stand-in ``time`` module whose monotonic clock advances 1 s per read,
    so a ``time_limit`` deadline of N seconds expires after N budget polls."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


def test_time_limited_csr_query_truncates_to_a_subset(planted_skew, monkeypatch):
    graph, csr = planted_skew
    full = set(run_enumeration(graph, QuerySpec(gamma=SKEW_GAMMA, theta=SKEW_THETA))
               .maximal_quasi_cliques)
    spec = QuerySpec(gamma=SKEW_GAMMA, theta=SKEW_THETA, time_limit=300)
    monkeypatch.setattr(retry_module, "time", TickingClock())
    engine = MQCEEngine()
    result = engine.query(csr, spec=spec, use_cache=False)
    assert result.truncated
    assert result.search_statistics.branches_explored < 300
    stream = engine.stream(csr, spec=spec, use_cache=False)
    streamed = set(stream)
    assert stream.truncated and not stream.finished
    assert streamed <= full


# ----------------------------------------------------------------------
# Generators + ingestion glue
# ----------------------------------------------------------------------
def test_generator_csr_graphs_match_dict_generators():
    dict_graph = barabasi_albert(300, 3, seed=21)
    csr_graph = powerlaw_csr_graph(300, 3, seed=21)
    assert csr_graph.vertices() == dict_graph.vertices()
    assert set(map(frozenset, csr_graph.edges())) == \
        set(map(frozenset, dict_graph.edges()))
    dict_gnm = erdos_renyi_gnm(200, 900, seed=4)
    csr_gnm = gnm_csr_graph(200, 900, seed=4)
    assert set(map(frozenset, csr_gnm.edges())) == \
        set(map(frozenset, dict_gnm.edges()))


def test_ingest_answers_match_read_edge_list():
    graph = barabasi_albert(150, 3, seed=13)
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    text = buffer.getvalue()
    dict_graph = read_edge_list(io.StringIO(text))
    csr_graph = ingest_edge_list(io.StringIO(text))
    assert isinstance(csr_graph, CSRGraph)
    # The vertex order fixes the index space, and with it every tie-break.
    assert csr_graph.vertices() == dict_graph.vertices()
    assert set(map(frozenset, csr_graph.edges())) == \
        set(map(frozenset, dict_graph.edges()))
    query = QuerySpec(gamma=0.9, theta=4)
    expected = run_enumeration(dict_graph, query)
    actual = run_enumeration(csr_graph, query)
    assert set(actual.maximal_quasi_cliques) == \
        set(expected.maximal_quasi_cliques)


def test_ingest_prepare_and_query_import_no_numpy(tmp_path):
    """The CSR tier is stdlib-only: loading, preparing and querying a graph
    never imports numpy, even where it is installed."""
    path = tmp_path / "graph.edges"
    write_edge_list(planted_quasi_clique_graph(200, 400, [12], 0.9, seed=3), path)
    script = (
        "import sys\n"
        "from repro import MQCEEngine, QuerySpec\n"
        "from repro.engine.prepared import PreparedGraph\n"
        "from repro.graph.io import ingest_edge_list\n"
        f"prepared = PreparedGraph(ingest_edge_list({str(path)!r})).prepare()\n"
        "result = MQCEEngine(workers=1).query(prepared, QuerySpec(0.9, 8))\n"
        "print(len(result.maximal_quasi_cliques), 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
    answers, numpy_loaded = completed.stdout.split()
    assert int(answers) > 0
    assert numpy_loaded == "False"
