"""The fluent query builder: ``Q(graph).gamma(0.9).theta(5).top(10).run()``.

:class:`Q` binds a graph (or a prepared graph) and accumulates
:class:`~repro.api.spec.QuerySpec` fields through chainable, *immutable*
steps — every call returns a new builder, so partial chains can be reused::

    base = Q(graph).gamma(0.9).theta(5)
    communities = base.containing("alice").run()
    biggest = base.top(3).run()

Terminal operations:

``spec()``
    The accumulated :class:`QuerySpec` (validated).
``run(engine=None)``
    Execute and return the workload-shaped value: an
    :class:`~repro.pipeline.results.EnumerationResult` for enumerate, a list
    of frozensets for top-k / containment, an int for count.  With an
    ``engine`` — an :class:`~repro.engine.MQCEEngine` or, for mutable graphs,
    a :class:`repro.dynamic.DynamicEngine` bound to this graph — the query is
    planned and served through its cache.
``result(engine=None)``
    Always the full :class:`EnumerationResult` envelope.
``stream(engine=None)``
    A :class:`~repro.engine.stream.ResultStream` of maximal quasi-cliques,
    yielding incrementally (a fresh :class:`~repro.engine.MQCEEngine` serves
    it when no ``engine`` is given).
``explain(engine=None)``
    The :class:`~repro.engine.planner.QueryPlan` the engine would use.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..graph.graph import Graph
from .execute import execute, result_value, shape_result
from .spec import QuerySpec


class Q:
    """An immutable fluent builder over one graph and one growing spec."""

    __slots__ = ("_graph", "_fields")

    def __init__(self, graph: Graph, **fields: Any) -> None:
        self._graph = graph
        self._fields = fields

    def _with(self, **updates: Any) -> "Q":
        merged = dict(self._fields)
        merged.update(updates)
        return Q(self._graph, **merged)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def gamma(self, value: float) -> "Q":
        """Degree fraction threshold in ``[0.5, 1]``."""
        return self._with(gamma=value)

    def theta(self, value: int) -> "Q":
        """Minimum quasi-clique size (for top-k: the smallest threshold tried)."""
        return self._with(theta=value)

    def algorithm(self, name: str) -> "Q":
        """Force the MQCE-S1 algorithm (default ``"auto"``)."""
        return self._with(algorithm=name)

    def branching(self, name: str) -> "Q":
        """Force the branching rule (``"hybrid"``, ``"sym-se"`` or ``"se"``)."""
        return self._with(branching=name)

    def framework(self, name: str) -> "Q":
        """Force the divide-and-conquer framework (``"dc"``, ``"basic-dc"``, ``"none"``)."""
        return self._with(framework=name)

    def max_rounds(self, value: int) -> "Q":
        """Number of subproblem shrinking rounds (MAX_ROUND)."""
        return self._with(max_rounds=value)

    def no_maximality_filter(self) -> "Q":
        """Disable FastQC's necessary-condition output filter (ablation knob)."""
        return self._with(maximality_filter=False)

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def containing(self, *vertices) -> "Q":
        """Restrict answers to quasi-cliques containing every given vertex."""
        return self._with(contains=tuple(vertices))

    def top(self, k: int) -> "Q":
        """Keep only the ``k`` largest answers."""
        return self._with(k=k)

    def count(self) -> "Q":
        """Ask only for the number of answers (``run()`` returns an int)."""
        return self._with(count_only=True)

    def any_quasi_clique(self) -> "Q":
        """Containment queries: return every found QC, not just maximal ones."""
        return self._with(require_maximal=False)

    # ------------------------------------------------------------------
    # Budgets and output options
    # ------------------------------------------------------------------
    def within(self, seconds: float) -> "Q":
        """Soft wall-clock budget; enumeration stops cooperatively when exceeded."""
        return self._with(time_limit=seconds)

    def limit(self, n: int) -> "Q":
        """Deliver at most ``n`` answers (streaming stops enumeration early)."""
        return self._with(max_results=n)

    def no_candidates(self) -> "Q":
        """Drop the MQCE-S1 candidate list from the delivered envelope."""
        return self._with(include_candidates=False)

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def spec(self) -> QuerySpec:
        """Build (and validate) the accumulated :class:`QuerySpec`."""
        return QuerySpec(**self._fields)

    def replace(self, **updates: Any) -> "Q":
        """Escape hatch: set any :class:`QuerySpec` field by name."""
        return self._with(**updates)

    def result(self, engine=None):
        """Execute and return the full :class:`EnumerationResult` envelope."""
        spec = self.spec()
        if engine is not None:
            return engine.query(self._graph, spec)
        return shape_result(execute(self._plain_graph(), spec), spec)

    def run(self, engine=None):
        """Execute and return the workload-shaped value (see module docstring)."""
        spec = self.spec()
        return result_value(self.result(engine), spec)

    def stream(self, engine=None):
        """Execute incrementally: a :class:`ResultStream` of maximal quasi-cliques."""
        return self._engine(engine).stream(self._graph, self.spec())

    def explain(self, engine=None):
        """Return the :class:`QueryPlan` an engine would choose for this spec."""
        return self._engine(engine).explain(self._graph, self.spec())

    @staticmethod
    def _engine(engine):
        """The given engine, or a fresh :class:`MQCEEngine`."""
        if engine is not None:
            return engine
        # Lazy import: the engine package imports this module.
        from ..engine import MQCEEngine

        return MQCEEngine()

    def _plain_graph(self) -> Graph:
        """Unwrap an engine ``PreparedGraph`` for the engine-free paths."""
        graph = self._graph
        return graph.graph if hasattr(graph, "graph") and not isinstance(graph, Graph) else graph

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self._fields.items())
        return f"Q({self._graph!r}).with({fields})"


#: Alias for readers who prefer a full word over the terse ``Q``.
QueryBuilder = Q

# `replace` is re-exported so builder users can tweak specs without importing
# dataclasses themselves.
__all__ = ["Q", "QueryBuilder", "replace"]
