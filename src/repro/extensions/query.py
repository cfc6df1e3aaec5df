"""Query-driven maximal quasi-clique search: :func:`community_of`.

The related work the paper cites ([11, 12, 25]) studies a constrained variant
of MQCE: find the (maximal) gamma-quasi-cliques that *contain a given set of
query vertices* — e.g. the communities around a particular user, or the
functional groups involving a protein of interest.

That search is the containment workload of the :class:`repro.api.QuerySpec`
API (``Q(graph).gamma(0.9).theta(5).containing("alice").run()``), implemented
by :func:`repro.api.execute.containment_search`.  This module keeps one
convenience on top of it, :func:`community_of`, which also accepts a
:class:`repro.engine.PreparedGraph` in place of the graph.
"""

from __future__ import annotations

from ..errors import QueryError
from ..graph.graph import Graph, VertexLabel


def community_of(graph: Graph, vertex: VertexLabel, gamma: float, theta: int = 3
                 ) -> frozenset:
    """Return the largest (maximal) gamma-quasi-clique containing ``vertex``.

    Returns the empty frozenset when no quasi-clique of size >= theta contains
    the vertex.  A convenience wrapper used by the community-search example.
    """
    # Lazy imports: the engine and api packages build on these extensions.
    from ..api.execute import containment_search
    from ..api.spec import QuerySpec
    from ..engine.prepared import as_plain_graph

    spec = QuerySpec(gamma=gamma, theta=theta, contains=(vertex,))
    cliques = containment_search(as_plain_graph(graph), spec).maximal_quasi_cliques
    return cliques[0] if cliques else frozenset()


__all__ = ["QueryError", "community_of"]
