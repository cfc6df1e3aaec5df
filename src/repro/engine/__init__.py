"""repro.engine — a persistent MQCE query engine.

The one-shot pipeline (:func:`repro.run_enumeration`) re-validates, re-prunes
and re-enumerates from scratch on every call.  This package adds
what a database engine adds on top of an algorithm:

* :class:`PreparedGraph` — per-graph preprocessing (core decomposition,
  degeneracy ordering, components, content fingerprint) computed once,
* :class:`QueryPlanner` / :class:`QueryPlan` — explainable cost-based
  selection of algorithm, branching rule and parallelism,
* :class:`ResultCache` — a bounded LRU over
  ``(fingerprint, gamma, theta, algorithm)`` with hit/miss/eviction counters,
* :class:`MQCEEngine` — the facade tying them together, with ``query()``,
  ``stream()`` (a :class:`ResultStream`: incremental delivery of a
  :class:`repro.api.QuerySpec`), ``query_batch()``, ``explain()`` and
  ``stats()``.

Quickstart
----------
>>> from repro import MQCEEngine
>>> from repro.datasets import load_dataset, get_spec
>>> engine = MQCEEngine()
>>> spec = get_spec("ca-grqc")
>>> result = engine.query(load_dataset("ca-grqc"), spec.default_gamma,
...                       spec.default_theta)        # cold: plans + enumerates
>>> result.maximal_count
6
"""

from .cache import CacheStats, ResultCache
from .engine import EngineError, MQCEEngine, QueryRecord, QueryRequest
from .fingerprint import graph_fingerprint
from .planner import PlannerConfig, QueryPlan, QueryPlanner
from .prepared import PreparedGraph, as_plain_graph, prepare_graph
from .stream import ResultStream

__all__ = [
    "CacheStats",
    "EngineError",
    "MQCEEngine",
    "PlannerConfig",
    "PreparedGraph",
    "QueryPlan",
    "QueryPlanner",
    "QueryRecord",
    "QueryRequest",
    "ResultCache",
    "ResultStream",
    "as_plain_graph",
    "graph_fingerprint",
    "prepare_graph",
]
