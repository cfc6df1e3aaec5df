"""Tests for the CSR large-graph backend (repro.core.csr).

The contract under test: a :class:`CSRGraph` is a read-only facade over flat
``indptr`` / ``indices`` arrays whose every accessor — and therefore every
enumeration answer — is identical to a dict/bitmask :class:`Graph` of the
same content.  The differential below covers the full dataset registry.
"""

from __future__ import annotations

import io

import pytest

import repro.core.fastqc as fastqc_module
import repro.resilience.retry as retry_module
from repro import Graph, GraphError, MQCEEngine
from repro.api import QuerySpec
from repro.core.dcfastqc import DCFastQC
from repro.core.csr import (
    CSRGraph,
    build_csr_arrays,
    csr_restricted_degeneracy_order,
    iter_mask_indices,
)
from repro.datasets.registry import REGISTRY, default_parameters, get_spec, load_dataset
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
    planted_quasi_clique_graph,
)
from repro.graph.subgraph import compact_subgraph
from repro.pipeline.mqce import run_enumeration

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less CI lane
    HAVE_NUMPY = False


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
    assert clone.vertices() == csr.vertices()
    assert clone.edge_count == csr.edge_count


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_build_rejects_self_loops_and_bad_shapes():
    with pytest.raises(GraphError, match="self-loop"):
        build_csr_arrays(3, [0, 1], [0, 2], use_numpy=False)
    if HAVE_NUMPY:
        with pytest.raises(GraphError, match="self-loop"):
            build_csr_arrays(3, [0, 1], [0, 2], use_numpy=True)
    with pytest.raises(GraphError, match="self-loops"):
        CSRGraph.from_edge_stream([("a", "a")])
    indptr, indices, _ = build_csr_arrays(2, [0], [1], use_numpy=False)
    with pytest.raises(GraphError, match="indptr"):
        CSRGraph(["a", "b", "c"], indptr, indices)
    with pytest.raises(GraphError, match="duplicate"):
        CSRGraph(["a", "a"], build_csr_arrays(2, [0], [1], use_numpy=False)[0],
                 indices)


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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
def test_numpy_and_stdlib_builds_are_identical():
    graph = erdos_renyi_gnm(80, 400, seed=5)
    endpoints = list(zip(*[(graph.index_of(u), graph.index_of(v))
                           for u, v in graph.edges()]))
    for_np = build_csr_arrays(80, endpoints[0], endpoints[1], use_numpy=True)
    for_py = build_csr_arrays(80, endpoints[0], endpoints[1], use_numpy=False)
    assert list(for_np[0]) == list(for_py[0])
    assert list(for_np[1]) == list(for_py[1])
    assert for_np[2] == for_py[2]
    # And the returned buffers hold plain Python ints (no numpy scalar
    # leakage into `1 << width` shifts).
    assert type(for_np[1][0]) is int


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
    indptr, indices, edge_count = build_csr_arrays(3, [0, 1], [1, 2],
                                                   use_numpy=False)
    graph = Graph.from_csr(["a", "b", "c"], indptr, indices,
                           edge_count=edge_count)
    assert isinstance(graph, CSRGraph)
    assert graph.edge_count == 2
    assert graph.adjacency_mask(1) == 0b101


# ----------------------------------------------------------------------
# CSR-native algorithm parity
# ----------------------------------------------------------------------
def test_degeneracy_machinery_matches(pair):
    graph, csr = pair
    assert degeneracy_ordering(csr) == degeneracy_ordering(graph)
    assert core_numbers(csr) == core_numbers(graph)
    assert degeneracy(csr) == degeneracy(graph)


def test_components_and_connectivity_match():
    graph = Graph([(1, 2), (2, 3), (10, 11), (12, 13), (13, 10)])
    graph.add_vertex(99)
    csr = csr_of(graph)
    assert connected_components(csr) == connected_components(graph)
    assert is_connected(csr) == is_connected(graph)
    sub = [1, 2, 3]
    assert is_connected(csr, sub) == is_connected(graph, sub)
    mask = graph.mask_of([10, 11, 12])
    assert connected_components(csr, within_mask=mask) == \
        connected_components(graph, within_mask=mask)
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
    graph, csr = pair
    mask = graph.mask_of(graph.vertices()[20:60])
    from_dict = compact_subgraph(graph, mask)
    from_csr = compact_subgraph(csr, mask)
    assert from_csr.vertices() == from_dict.vertices()
    assert list(from_csr.adjacency_masks()) == list(from_dict.adjacency_masks())
    assert type(from_csr) is Graph  # subproblems return to the bitmask kernel


def test_restricted_degeneracy_order_equals_compact_route(pair):
    graph, csr = pair
    mask = graph.mask_of(graph.vertices()[10:90])
    expected = degeneracy_ordering(compact_subgraph(graph, mask))
    assert degeneracy_ordering_within(graph, mask) == expected
    assert degeneracy_ordering_within(csr, mask) == expected
    native = [csr.label_of(i)
              for i in csr_restricted_degeneracy_order(csr, mask)]
    assert native == expected
    assert degeneracy_ordering_within(csr, csr.full_mask()) == \
        degeneracy_ordering(graph)


def test_restricted_counts_match_mask_popcounts(pair):
    graph, csr = pair
    members = graph.mask_of(graph.vertices()[15:70])
    target = graph.mask_of(graph.vertices()[0:50])
    counts = csr.restricted_counts(members, target)
    assert set(counts) == set(iter_bits(members))
    for v in iter_bits(members):
        assert counts[v] == (graph.adjacency_mask(v) & target).bit_count()
    self_counts = csr.restricted_counts(members)
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
        assert mine.adjacency_masks == theirs.adjacency_masks
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


def test_sequential_csr_run_checks_maximality_against_halo_graphs(
        planted_skew, monkeypatch):
    """Guard: every maximality check of a sequential CSR run targets one
    subproblem's ball-plus-halo graph, never the |V|-vertex input graph."""
    _graph, csr = planted_skew
    targets = []
    check = fastqc_module.mask_satisfies_maximality_necessary_condition

    def recording(graph, subset_mask, gamma):
        targets.append((graph is csr, graph.vertex_count))
        return check(graph, subset_mask, gamma)

    monkeypatch.setattr(fastqc_module,
                        "mask_satisfies_maximality_necessary_condition", recording)
    DCFastQC(csr, SKEW_GAMMA, SKEW_THETA).enumerate()
    halo_sizes = {len(payload.labels) + len(payload.halo_labels) for payload in
                  DCFastQC(csr, SKEW_GAMMA, SKEW_THETA).iter_compact_subproblems()}
    assert targets
    assert not any(is_input for is_input, _ in targets)
    assert {vertex_count for _, vertex_count in targets} <= halo_sizes
    assert max(halo_sizes) < csr.vertex_count


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
    query = QuerySpec(gamma=0.9, theta=4)
    expected = run_enumeration(dict_graph, query)
    actual = run_enumeration(csr_graph, query)
    assert set(actual.maximal_quasi_cliques) == \
        set(expected.maximal_quasi_cliques)
