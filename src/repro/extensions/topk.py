"""Top-k largest quasi-clique mining (the related-work problem of [34, 35]).

The paper's Section 7 discusses the problem of finding the k *largest*
gamma-quasi-cliques instead of all maximal ones, and the kernel-expansion
strategy used for it: first mine denser gamma'-quasi-cliques (gamma' > gamma),
which are fast to find, use them as kernels, and grow each kernel greedily into
a large gamma-quasi-clique.  This module provides

* :func:`kernel_expansion_top_k` — the heuristic kernel-expansion method, which
  is much faster on large inputs but only returns quasi-cliques containing a
  kernel (the same trade-off the paper points out), and
* :func:`largest_quasi_clique_size` — the exact size of the largest
  quasi-clique, via :func:`repro.api.execute.topk_search`.

The exact top-k itself is the QuerySpec top-k workload
(``Q(graph).gamma(0.9).theta(2).top(k).run()``).  These functions also accept
a :class:`repro.engine.PreparedGraph` in place of the graph;
:func:`largest_quasi_clique_size` then starts from the prepared
degeneracy-based size upper bound instead of ``|V| / 2``, skipping the doomed
early rounds of the halving schedule.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.dcfastqc import DCFastQC
from ..graph.graph import Graph
from ..quasiclique.definitions import is_quasi_clique, validate_parameters
from ..quasiclique.maximality import extending_vertices
from ..settrie.filter import filter_non_maximal


def _unwrap_prepared(graph):
    """Split a Graph-or-PreparedGraph argument into (graph, prepared-or-None)."""
    # Imported lazily: repro.engine itself builds on these extension modules.
    from ..engine.prepared import PreparedGraph

    if isinstance(graph, PreparedGraph):
        return graph.graph, graph
    return graph, None


def expand_kernel(graph: Graph, kernel: frozenset, gamma: float) -> frozenset:
    """Greedily grow a quasi-clique from a kernel while it stays a gamma-QC.

    At each step the extension vertex keeping the highest internal degree is
    added; the expansion stops when no single vertex extends the current set
    (the same stopping rule as the maximality necessary condition).
    """
    graph, _ = _unwrap_prepared(graph)
    current = frozenset(kernel)
    if not is_quasi_clique(graph, current, gamma):
        return current
    while True:
        extensions = extending_vertices(graph, current, gamma)
        if not extensions:
            return current
        best = max(extensions,
                   key=lambda v: (len(graph.neighbors(v) & current), str(v)))
        current = current | {best}


def kernel_expansion_top_k(graph: Graph, gamma: float, k: int = 1,
                           kernel_gamma: float | None = None,
                           kernel_theta: int = 3) -> list[frozenset]:
    """Heuristic top-k largest gamma-quasi-cliques via kernel expansion.

    Kernels are the maximal ``kernel_gamma``-quasi-cliques (default:
    ``min(1.0, gamma + 0.05)``) of size at least ``kernel_theta``; each kernel
    is greedily expanded under the target ``gamma``.  The result is a list of
    up to ``k`` distinct quasi-cliques sorted by decreasing size.  Unlike the
    exact top-k workload the answer is not guaranteed to contain the true
    largest quasi-clique (kernels may miss it), mirroring the trade-off of the
    kernel-expansion literature.
    """
    graph, _ = _unwrap_prepared(graph)
    validate_parameters(gamma, kernel_theta)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if kernel_gamma is None:
        kernel_gamma = min(1.0, round(gamma + 0.05, 3))
    if kernel_gamma < gamma:
        raise ValueError("kernel_gamma must be at least gamma")
    kernels = filter_non_maximal(
        DCFastQC(graph, kernel_gamma, kernel_theta).enumerate(), theta=kernel_theta)
    expanded: set[frozenset] = set()
    for kernel in kernels:
        grown = expand_kernel(graph, kernel, gamma)
        if is_quasi_clique(graph, grown, gamma):
            expanded.add(grown)
    ranked = sorted(expanded, key=lambda clique: (-len(clique), sorted(map(str, clique))))
    return ranked[:k]


def largest_quasi_clique_size(graph: Graph, gamma: float, minimum_size: int = 2) -> int:
    """Return the number of vertices of the largest gamma-quasi-clique (exact)."""
    from ..api.execute import topk_search
    from ..api.spec import QuerySpec

    graph, prepared = _unwrap_prepared(graph)
    validate_parameters(gamma, max(1, minimum_size))
    if graph.vertex_count == 0:
        return 0
    spec = QuerySpec(gamma=gamma, theta=max(1, minimum_size), k=1,
                     algorithm="dcfastqc")
    bound = prepared.size_upper_bound(gamma) if prepared is not None else None
    top = topk_search(graph, spec, size_bound=bound).maximal_quasi_cliques
    return len(top[0]) if top else 0


def top_k_summary(cliques: Sequence[frozenset]) -> list[dict]:
    """Small helper: one row per returned quasi-clique (size + members)."""
    return [{"rank": rank + 1, "size": len(clique),
             "members": tuple(sorted(map(str, clique)))}
            for rank, clique in enumerate(cliques)]
