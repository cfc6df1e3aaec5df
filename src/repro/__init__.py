"""repro — maximal quasi-clique enumeration (FastQC / DCFastQC / Quick+).

A production-quality reproduction of "Fast Maximal Quasi-clique Enumeration:
A Pruning and Branching Co-Design Approach" (Yu & Long, SIGMOD).  The package
provides

* :class:`repro.Graph` — the graph substrate,
* :class:`repro.QuerySpec` / :class:`repro.Q` — the declarative query API:
  one hashable spec for every workload (enumerate / top-k / containment /
  count) with budgets and streaming delivery,
* :func:`repro.run_enumeration` — the one-shot MQCE pipeline for one spec,
* :class:`repro.MQCEEngine` — the persistent query engine (prepared graphs,
  cost-based plan selection, LRU result caching, ``stream()`` returning a
  :class:`repro.ResultStream`) for repeated queries,
* :class:`repro.FastQC`, :class:`repro.DCFastQC`, :class:`repro.QuickPlus` —
  the MQCE-S1 branch-and-bound algorithms,
* :func:`repro.filter_non_maximal` — the set-trie based MQCE-S2 filter,
* ``repro.datasets`` / ``repro.experiments`` — dataset analogues and the
  table/figure reproduction harness.

Quickstart
----------
>>> from repro import Graph, Q
>>> graph = Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)])
>>> result = Q(graph).gamma(0.6).theta(3).run()
>>> sorted(sorted(h) for h in result.maximal_quasi_cliques)
[[1, 2, 3, 4]]
"""

from .errors import EngineError, ParameterError, QueryError, ReproError, SpecError
from .graph import Graph, GraphError, read_edge_list, write_edge_list
from .quasiclique import (
    is_maximal_quasi_clique,
    is_quasi_clique,
    satisfies_maximality_necessary_condition,
)
from .core import DCFastQC, FastQC, SearchStatistics, branching_factor
from .baselines import NaiveEnumerator, QuickPlus
from .settrie import SetTrie, filter_non_maximal
from .pipeline import (
    ALGORITHMS,
    EnumerationResult,
    enumerate_candidate_quasi_cliques,
    run_enumeration,
)
from .extensions import (
    ParallelDCFastQC,
    community_of,
    kernel_expansion_top_k,
)
from .api import Q, QueryBuilder, QuerySpec
from .engine import (
    MQCEEngine,
    PreparedGraph,
    QueryPlan,
    QueryPlanner,
    ResultCache,
    ResultStream,
    prepare_graph,
)
from .dynamic import DynamicEngine, DynamicPreparedGraph, UpdateReport
from .graph import GraphDelta, GraphMutation
from .obs import (
    MetricsRegistry,
    ProgressEvent,
    ProgressTicker,
    Tracer,
    heartbeat,
    render_prometheus,
)
from . import api, datasets, dynamic, engine, experiments, extensions, obs

__version__ = "2.0.0"

__all__ = [
    "Graph",
    "GraphError",
    "ReproError",
    "QueryError",
    "ParameterError",
    "SpecError",
    "EngineError",
    "read_edge_list",
    "write_edge_list",
    "is_quasi_clique",
    "is_maximal_quasi_clique",
    "satisfies_maximality_necessary_condition",
    "FastQC",
    "DCFastQC",
    "QuickPlus",
    "NaiveEnumerator",
    "SearchStatistics",
    "branching_factor",
    "SetTrie",
    "filter_non_maximal",
    "ALGORITHMS",
    "EnumerationResult",
    "enumerate_candidate_quasi_cliques",
    "run_enumeration",
    "ParallelDCFastQC",
    "community_of",
    "kernel_expansion_top_k",
    "Q",
    "QueryBuilder",
    "QuerySpec",
    "MQCEEngine",
    "PreparedGraph",
    "QueryPlan",
    "QueryPlanner",
    "ResultCache",
    "ResultStream",
    "prepare_graph",
    "DynamicEngine",
    "DynamicPreparedGraph",
    "UpdateReport",
    "GraphDelta",
    "GraphMutation",
    "Tracer",
    "MetricsRegistry",
    "ProgressTicker",
    "ProgressEvent",
    "heartbeat",
    "render_prometheus",
    "api",
    "datasets",
    "dynamic",
    "engine",
    "experiments",
    "extensions",
    "obs",
    "__version__",
]
