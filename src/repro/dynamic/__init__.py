"""Dynamic graph updates: update scripts and selective cache invalidation.

A mutable :class:`~repro.graph.Graph` is served by the one
:class:`~repro.engine.MQCEEngine`: callers mutate the graph itself, and the
engine's :meth:`~repro.engine.MQCEEngine.sync` (run by every query) replays
the graph's changelog into its preparation and invalidates the result cache
*selectively* through a vertex → cached-entry inverted index — entries
untouched by a mutation survive (re-addressed to the new content fingerprint)
and keep their warm-hit speedup.

Quickstart
----------
>>> from repro import Graph, MQCEEngine, QuerySpec
>>> graph = Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)])
>>> engine, spec = MQCEEngine(), QuerySpec(gamma=0.9, theta=3)
>>> engine.query(graph, spec).maximal_quasi_cliques
[frozenset({1, 2, 3, 4})]
>>> graph.remove_edge(1, 4)
>>> sorted(sorted(h) for h in engine.query(graph, spec).maximal_quasi_cliques)
[[1, 2, 3], [2, 3, 4]]
"""

from .index import CacheIndex, EntryMeta, UpdateReport, UpdateStats
from .updates import (UpdateError, UpdateOp, apply_updates, normalise_update,
                      parse_updates, read_update_script)


def DynamicEngine(graph, name: str | None = None):
    """Return an :class:`~repro.engine.MQCEEngine` with ``graph`` prepared eagerly."""
    from ..engine.engine import MQCEEngine  # lazy: the engine imports this package

    engine = MQCEEngine()
    engine.prepare(graph, name=name).prepare()
    return engine


__all__ = [
    "CacheIndex",
    "DynamicEngine",
    "EntryMeta",
    "UpdateError",
    "UpdateOp",
    "UpdateReport",
    "UpdateStats",
    "apply_updates",
    "normalise_update",
    "parse_updates",
    "read_update_script",
]
