"""repro.engine — a persistent MQCE query engine.

The one-shot pipeline (:func:`repro.run_enumeration`) re-validates, re-prunes
and re-enumerates from scratch on every call.  This package adds
what a database engine adds on top of an algorithm:

* :class:`PreparedGraph` — per-graph preprocessing (content fingerprint,
  core decomposition) computed once,
* :class:`QueryPlanner` / :class:`QueryPlan` — explainable selection of
  algorithm, branching rule and parallelism,
* :class:`ResultCache` — a bounded LRU over
  ``(fingerprint, resolved spec)`` with hit/miss/eviction counters,
* :class:`MQCEEngine` — the facade tying them together: ``query()``,
  ``stream()`` (a :class:`ResultStream`: incremental delivery) and
  ``explain()`` each take a graph and a :class:`repro.api.QuerySpec`, and
  ``stats()`` reports the counters.

Quickstart
----------
>>> from repro import MQCEEngine, QuerySpec
>>> from repro.datasets import load_dataset, get_spec
>>> engine = MQCEEngine()
>>> dataset = get_spec("ca-grqc")
>>> spec = QuerySpec(gamma=dataset.default_gamma, theta=dataset.default_theta)
>>> result = engine.query(load_dataset("ca-grqc"), spec)  # cold: plans + enumerates
>>> result.maximal_count
6
"""

from .cache import CacheStats, ResultCache
from .engine import EngineError, MQCEEngine, QueryRecord
from .fingerprint import graph_fingerprint
from .planner import QueryPlan, QueryPlanner
from .prepared import PreparedGraph, as_plain_graph, prepare_graph
from .stream import ResultStream

__all__ = [
    "CacheStats",
    "EngineError",
    "MQCEEngine",
    "PreparedGraph",
    "QueryPlan",
    "QueryPlanner",
    "QueryRecord",
    "ResultCache",
    "ResultStream",
    "as_plain_graph",
    "graph_fingerprint",
    "prepare_graph",
]
