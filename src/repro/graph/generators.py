"""Random graph generators for the synthetic experiments and the dataset registry.

The paper's synthetic datasets (Section 6, Figure 10) follow the Erdos–Renyi
model parameterised by vertex count and *edge density* ``|E| / |V|``.  The real
KONECT datasets cannot be downloaded in this offline environment, so the
dataset registry (``repro.datasets``) composes the generators below —
power-law backgrounds plus planted quasi-cliques — into deterministic,
scaled-down analogues that preserve the structural properties the algorithms
are sensitive to (sparsity, skewed degrees, locally dense regions).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator, Sequence

from .graph import Graph


def _gnm_edge_sample(vertex_count: int, edge_count: int,
                     rng: random.Random) -> Iterator[tuple[int, int]]:
    """Yield ``edge_count`` distinct ``(u, v)`` pairs (``u < v``) of a G(n, m) draw.

    Sparse asks — ``edge_count`` at most half the possible pairs — use the
    historical rejection loop with an *identical* rng consumption pattern and
    yield order, so existing seeds keep producing exactly the graphs recorded
    by earlier versions (the dataset registry's pinned analogues depend on
    this).  Dense asks invert the problem: the rejection loop's expected work
    diverges as ``edge_count -> max_edges`` (the last acceptance takes
    O(max_edges) draws), so instead we rejection-sample the *complement* —
    ``max_edges - edge_count`` excluded pairs, where the acceptance rate is
    at least 1/2 by construction — and emit every non-excluded pair in
    lexicographic order.  Seeds on the dense side of the threshold produce
    different (still exact-m) graphs than the pre-fix rejection loop did; no
    registry analogue sits on that side, so nothing recorded moves.
    """
    max_edges = vertex_count * (vertex_count - 1) // 2
    if 2 * edge_count <= max_edges:
        existing: set[tuple[int, int]] = set()
        while len(existing) < edge_count:
            u = rng.randrange(vertex_count)
            v = rng.randrange(vertex_count)
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in existing:
                continue
            existing.add(edge)
            yield edge
        return
    missing = max_edges - edge_count
    excluded: set[tuple[int, int]] = set()
    while len(excluded) < missing:
        u = rng.randrange(vertex_count)
        v = rng.randrange(vertex_count)
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in excluded:
            continue
        excluded.add(edge)
    for u in range(vertex_count - 1):
        for v in range(u + 1, vertex_count):
            if (u, v) not in excluded:
                yield u, v


def gnm_edges(vertex_count: int, edge_count: int,
              seed: int | None = None) -> Iterator[tuple[int, int]]:
    """Stream the edges of a G(n, m) draw without building a :class:`Graph`.

    :func:`erdos_renyi_gnm` builds its graph from this stream, so the same
    seed yields the same edge set — feed it to
    :meth:`repro.core.csr.CSRGraph.from_edge_stream` (or
    :func:`gnm_csr_graph`) for 10^5+-vertex graphs in O(V + E) memory.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    max_edges = vertex_count * (vertex_count - 1) // 2
    if edge_count > max_edges:
        raise ValueError(f"edge_count {edge_count} exceeds the maximum {max_edges}")
    return _gnm_edge_sample(vertex_count, edge_count, random.Random(seed))


def erdos_renyi_gnm(vertex_count: int, edge_count: int, seed: int | None = None) -> Graph:
    """Return a G(n, m) random graph with exactly ``edge_count`` distinct edges.

    This matches the paper's synthetic data construction: "we first generate a
    certain number of vertices and then randomly add a certain number of edges
    between pairs of vertices".  The edges are :func:`gnm_edges`'.
    """
    return Graph(edges=gnm_edges(vertex_count, edge_count, seed=seed),
                 vertices=range(vertex_count))


def erdos_renyi_by_density(vertex_count: int, edge_density: float, seed: int | None = None) -> Graph:
    """Return an ER graph with ``|E| = round(edge_density * |V|)`` edges."""
    edge_count = int(round(edge_density * vertex_count))
    return erdos_renyi_gnm(vertex_count, edge_count, seed=seed)


def _pair_from_index(pair_index: int, vertex_count: int) -> tuple[int, int]:
    """Map a lexicographic pair index to the ``(u, v)`` pair with ``u < v``.

    Row ``u`` holds pairs ``(u, u+1) .. (u, n-1)``; the closed-form inverse
    of the cumulative row size ``C(u) = u * (2n - u - 1) / 2`` uses
    ``math.isqrt``, with while-guards absorbing any integer-sqrt rounding.
    """
    t = 2 * vertex_count - 1
    u = (t - math.isqrt(t * t - 8 * pair_index)) // 2
    base = u * (2 * vertex_count - u - 1) // 2
    while base > pair_index:
        u -= 1
        base = u * (2 * vertex_count - u - 1) // 2
    while pair_index - base >= vertex_count - 1 - u:
        base += vertex_count - 1 - u
        u += 1
    return u, u + 1 + (pair_index - base)


def gnp_edges(vertex_count: int, probability: float,
              seed: int | None = None) -> Iterator[tuple[int, int]]:
    """Stream the edges of a G(n, p) draw in O(|E|) expected time.

    Instead of flipping a coin per pair (the O(n^2) loop that made
    ``erdos_renyi_gnp`` unusable past a few thousand vertices), geometric
    skip-sampling jumps straight to the next success: the gap between
    successive edges in the lexicographic pair order is Geometric(p), drawn
    as ``floor(log(1 - U) / log(1 - p))``.  Note the rng consumption differs
    from the old per-pair loop, so a given seed produces a different (equally
    distributed) graph than pre-fix versions did.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return _gnp_edge_sample(vertex_count, probability, seed)


def _gnp_edge_sample(vertex_count: int, probability: float,
                     seed: int | None) -> Iterator[tuple[int, int]]:
    total = vertex_count * (vertex_count - 1) // 2
    if probability <= 0.0 or total == 0:
        return
    if probability >= 1.0:
        for u in range(vertex_count - 1):
            for v in range(u + 1, vertex_count):
                yield u, v
        return
    rng = random.Random(seed)
    log_skip = math.log(1.0 - probability)
    pair_index = -1
    while True:
        pair_index += 1 + int(math.log(1.0 - rng.random()) / log_skip)
        if pair_index >= total:
            return
        yield _pair_from_index(pair_index, vertex_count)


def erdos_renyi_gnp(vertex_count: int, probability: float, seed: int | None = None) -> Graph:
    """Return a G(n, p) random graph (each pair independently an edge)."""
    graph = Graph(vertices=range(vertex_count))
    for u, v in gnp_edges(vertex_count, probability, seed=seed):
        graph.add_edge(u, v)
    return graph


def barabasi_albert(vertex_count: int, attachment: int, seed: int | None = None) -> Graph:
    """Return a Barabasi–Albert preferential-attachment graph.

    Produces the skewed degree distributions typical of the paper's social and
    web datasets while keeping the degeneracy small.  The edges are
    :func:`preferential_attachment_edges`'.
    """
    return Graph(edges=preferential_attachment_edges(vertex_count, attachment,
                                                     seed=seed),
                 vertices=range(vertex_count))


def preferential_attachment_edges(vertex_count: int, attachment: int,
                                  seed: int | None = None
                                  ) -> Iterator[tuple[int, int]]:
    """Stream the edges of a Barabasi–Albert draw without building a graph.

    Starts from a clique on ``attachment + 1`` vertices; every later vertex
    attaches to ``attachment`` distinct earlier ones, drawn from a pool that
    holds each vertex once per incident edge end (so proportionally to
    degree).  :func:`barabasi_albert` builds its graph from this stream, so
    the same seed yields the same edge set.  The only state kept is the
    O(n * attachment) attachment pool, so this scales to 10^5+ vertices
    where the dict/bitmask graph cannot; feed it to
    :func:`powerlaw_csr_graph` or
    :meth:`repro.core.csr.CSRGraph.from_edge_stream`.
    """
    if attachment < 1:
        raise ValueError("attachment must be >= 1")
    if vertex_count <= attachment:
        raise ValueError("vertex_count must exceed attachment")
    return _preferential_attachment_sample(vertex_count, attachment, seed)


def _preferential_attachment_sample(vertex_count: int, attachment: int,
                                    seed: int | None) -> Iterator[tuple[int, int]]:
    rng = random.Random(seed)
    targets = list(range(attachment + 1))
    for u in targets:
        for v in targets:
            if u < v:
                yield u, v
    repeated: list[int] = []
    for vertex in targets:
        repeated.extend([vertex] * attachment)
    for new_vertex in range(attachment + 1, vertex_count):
        chosen: set[int] = set()
        while len(chosen) < attachment:
            chosen.add(rng.choice(repeated))
        for target in chosen:
            yield new_vertex, target
            repeated.append(target)
        repeated.extend([new_vertex] * attachment)


def powerlaw_csr_graph(vertex_count: int, attachment: int,
                       seed: int | None = None):
    """Power-law (Barabasi–Albert) graph built straight into CSR form.

    Content-equal to ``barabasi_albert(vertex_count, attachment, seed)`` for
    the same seed, but O(V + E) memory end to end — the 10^5+-vertex
    generator for the large-graph benchmark tier.
    """
    from ..core.csr import CSRGraph

    return CSRGraph.from_edge_stream(
        preferential_attachment_edges(vertex_count, attachment, seed=seed),
        vertices=range(vertex_count))


def gnm_csr_graph(vertex_count: int, edge_count: int, seed: int | None = None):
    """G(n, m) graph built straight into CSR form (O(V + E) memory)."""
    from ..core.csr import CSRGraph

    return CSRGraph.from_edge_stream(
        gnm_edges(vertex_count, edge_count, seed=seed),
        vertices=range(vertex_count))


def planted_quasi_clique(graph: Graph, members: Sequence, gamma: float,
                         seed: int | None = None) -> Graph:
    """Densify ``G[members]`` in place until it is a gamma-quasi-clique.

    Edges are added between the least-connected member and a random
    non-neighbour member until every member has at least
    ``ceil(gamma * (|members| - 1))`` neighbours inside the group.  Returns the
    same graph object for chaining.
    """
    import math
    from fractions import Fraction

    members = list(members)
    if len(members) < 2:
        return graph
    for member in members:
        if member not in graph:
            graph.add_vertex(member)
    rng = random.Random(seed)
    # Exact rational arithmetic so boundary cases round the same way as the
    # quasi-clique definition in repro.quasiclique.definitions.
    required = math.ceil(Fraction(str(gamma)) * (len(members) - 1))
    member_set = set(members)

    def internal_degree(vertex) -> int:
        return len(graph.neighbors(vertex) & member_set)

    progress = True
    while progress:
        progress = False
        deficient = [m for m in members if internal_degree(m) < required]
        if not deficient:
            break
        vertex = min(deficient, key=internal_degree)
        candidates = [m for m in members
                      if m != vertex and not graph.has_edge(vertex, m)]
        if not candidates:
            break
        graph.add_edge(vertex, rng.choice(candidates))
        progress = True
    return graph


def planted_quasi_clique_graph(vertex_count: int, background_edges: int,
                               clique_sizes: Iterable[int], gamma: float,
                               seed: int | None = None) -> Graph:
    """Return an ER background graph with several planted gamma-quasi-cliques.

    The planted groups are vertex-disjoint and drawn from the lowest vertex
    ids, so tests and the dataset registry can reason about where the dense
    regions are.
    """
    rng = random.Random(seed)
    graph = erdos_renyi_gnm(vertex_count, background_edges, seed=rng.randrange(2**31))
    next_start = 0
    for size in clique_sizes:
        if next_start + size > vertex_count:
            raise ValueError("planted cliques do not fit in the graph")
        members = list(range(next_start, next_start + size))
        planted_quasi_clique(graph, members, gamma, seed=rng.randrange(2**31))
        next_start += size
    return graph


def random_connected_graph(vertex_count: int, extra_edges: int, seed: int | None = None) -> Graph:
    """Return a connected random graph: a random spanning tree plus extra edges."""
    rng = random.Random(seed)
    graph = Graph(vertices=range(vertex_count))
    vertices = list(range(vertex_count))
    rng.shuffle(vertices)
    for position in range(1, vertex_count):
        parent = vertices[rng.randrange(position)]
        graph.add_edge(vertices[position], parent)
    added = 0
    attempts = 0
    max_attempts = 20 * (extra_edges + 1)
    while added < extra_edges and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(vertex_count)
        v = rng.randrange(vertex_count)
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
        added += 1
    return graph
