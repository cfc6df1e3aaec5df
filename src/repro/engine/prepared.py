"""Prepared graphs: compute the expensive per-graph artifacts once, reuse forever.

``find_maximal_quasi_cliques`` recomputes the same per-graph preprocessing on
every call: core decomposition, degeneracy ordering, connected components and
degree arrays.  For a query engine serving many ``(gamma, theta)`` queries over
the same graph that work should be paid once.  :class:`PreparedGraph` wraps a
:class:`~repro.graph.graph.Graph` and memoizes

* the content :func:`~repro.engine.fingerprint.graph_fingerprint` (cache key),
* the core decomposition (core numbers, degeneracy, per-threshold core masks),
* the degeneracy ordering,
* the connected-component split, and
* the degree array and Table-1 style graph statistics.

Everything is computed lazily on first access; :meth:`PreparedGraph.prepare`
forces all artifacts eagerly (and records how long each took) for callers that
want the cost up front, e.g. at service start-up.

A prepared graph assumes the underlying graph is *frozen*.  Every graph
mutation bumps :attr:`repro.graph.Graph.version`, so :meth:`check_unmodified`
detects mutation exactly — including add/remove pairs that restore the vertex
and edge counts, which the historical count-based snapshot missed; the engine
re-prepares automatically when it trips.  For graphs that are *expected* to
change, :class:`repro.dynamic.DynamicPreparedGraph` patches these artifacts
incrementally instead of recomputing them.
"""

from __future__ import annotations

import math
import time
from functools import cached_property

from ..core.stats import SizeHistogram
from ..graph.core_decomposition import core_numbers, degeneracy_ordering
from ..graph.graph import Graph, VertexLabel
from ..graph.statistics import GraphStatistics, graph_statistics
from ..graph.subgraph import connected_components
from ..quasiclique.definitions import degree_threshold, gamma_fraction
from .fingerprint import graph_fingerprint

#: Names of the lazily computed artifacts, in the order ``prepare`` forces them.
ARTIFACTS = ("fingerprint", "degrees", "core_numbers", "degeneracy",
             "degeneracy_order", "components", "statistics")


class PreparedGraph:
    """A graph plus memoized preprocessing artifacts, ready for repeated queries.

    Parameters
    ----------
    graph:
        The graph to prepare.  It must not be mutated afterwards (see
        :meth:`check_unmodified`).
    name:
        Optional human-readable name (e.g. the registry dataset name), used in
        ``repr`` and the engine's explain output.
    """

    def __init__(self, graph: Graph, name: str | None = None) -> None:
        self.graph = graph
        self.name = name
        self._snapshot = graph.version
        self._core_masks: dict[int, int] = {}
        self.preparation_seconds: dict[str, float] = {}
        #: Memoized QueryPlans, populated by QueryPlanner.plan (plans are
        #: deterministic in the prepared graph and the query configuration).
        self.plan_cache: dict = {}
        #: Observed per-subproblem branch-count histograms from completed
        #: enumerations, keyed by ``(gamma_fraction, theta)``: the evidence
        #: that opens the planner's parallel gate for small cores.  The version
        #: counter is part of the plan memo key, so recording a new histogram
        #: invalidates plans computed without it.
        self.observed_branch_histograms: dict[tuple, SizeHistogram] = {}
        self.histogram_version = 0

    # ------------------------------------------------------------------
    # Lazily computed artifacts
    # ------------------------------------------------------------------
    @cached_property
    def fingerprint(self) -> str:
        """Content fingerprint of the graph (the cache-key component)."""
        return graph_fingerprint(self.graph)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees in index order (CSR-backed graphs read indptr diffs
        instead of materialising per-vertex sets)."""
        return tuple(self.graph.degree_sequence())

    @cached_property
    def core_numbers(self) -> dict[VertexLabel, int]:
        """Core number of every vertex (Batagelj–Zaversnik)."""
        return core_numbers(self.graph)

    @cached_property
    def degeneracy(self) -> int:
        """The degeneracy ``omega`` of the graph."""
        if not self.core_numbers:
            return 0
        return max(self.core_numbers.values())

    @cached_property
    def degeneracy_order(self) -> tuple[VertexLabel, ...]:
        """A degeneracy ordering of the whole graph."""
        return tuple(degeneracy_ordering(self.graph))

    @cached_property
    def components(self) -> tuple[frozenset[VertexLabel], ...]:
        """Connected components as label sets, largest first."""
        split = connected_components(self.graph)
        return tuple(sorted(split, key=len, reverse=True))

    @cached_property
    def statistics(self) -> GraphStatistics:
        """Table-1 style graph statistics (|V|, |E|, density, max degree, omega)."""
        return graph_statistics(self.graph)

    # ------------------------------------------------------------------
    # Parameter-dependent artifacts (memoized per threshold)
    # ------------------------------------------------------------------
    def core_mask(self, gamma: float, theta: int) -> int:
        """Bitmask of the ``ceil(gamma * (theta - 1))``-core (DCFastQC line 1).

        Distinct ``(gamma, theta)`` pairs often share the same degree
        threshold, so the mask is memoized per threshold, not per pair, and is
        derived from the memoized core numbers without re-running the bucket
        algorithm.
        """
        threshold = degree_threshold(gamma, theta)
        mask = self._core_masks.get(threshold)
        if mask is None:
            if threshold <= 0:
                mask = self.graph.full_mask()
            else:
                kept = [v for v, core in self.core_numbers.items() if core >= threshold]
                mask = self.graph.mask_of(kept)
            self._core_masks[threshold] = mask
        return mask

    def core_size(self, gamma: float, theta: int) -> int:
        """Number of vertices surviving the core reduction for ``(gamma, theta)``."""
        return self.core_mask(gamma, theta).bit_count()

    def size_upper_bound(self, gamma: float) -> int:
        """Largest possible gamma-quasi-clique size, from the degeneracy.

        A gamma-QC of size ``h`` has minimum internal degree
        ``ceil(gamma * (h - 1))``, which cannot exceed the degeneracy
        ``omega``; hence ``h <= floor(omega / gamma) + 1``.  Tighter than the
        generic ``2 * omega + 1`` bound for every gamma > 0.5.
        """
        if self.graph.vertex_count == 0:
            return 0
        bound = int(math.floor(self.degeneracy / gamma_fraction(gamma))) + 1
        return min(bound, self.graph.vertex_count)

    # ------------------------------------------------------------------
    # Observed work (the planner's parallel-gate evidence)
    # ------------------------------------------------------------------
    def record_subproblem_histogram(self, gamma: float, theta: int,
                                    histogram: SizeHistogram) -> None:
        """Remember the per-subproblem branch counts a completed run observed.

        Only non-empty histograms are kept (a trivial, non-DC or
        branch-parallel run records none).  The version counter bumps only
        when the stored evidence changes, so repeat queries do not churn the
        plan memo.
        """
        if not histogram:
            return
        key = (gamma_fraction(gamma), int(theta))
        previous = self.observed_branch_histograms.get(key)
        if previous is not None and (previous.count == histogram.count
                                     and previous.max == histogram.max
                                     and previous.total == histogram.total):
            return
        self.observed_branch_histograms[key] = histogram
        self.histogram_version += 1

    def subproblem_branch_histogram(self, gamma: float,
                                    theta: int) -> SizeHistogram | None:
        """The observed per-subproblem branch-count histogram, if any."""
        return self.observed_branch_histograms.get(
            (gamma_fraction(gamma), int(theta)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> "PreparedGraph":
        """Force every artifact eagerly, recording per-artifact wall time."""
        for artifact in ARTIFACTS:
            start = time.perf_counter()
            getattr(self, artifact)
            self.preparation_seconds[artifact] = time.perf_counter() - start
        return self

    def materialized_artifacts(self) -> tuple[str, ...]:
        """Names of the artifacts that have been computed so far."""
        return tuple(a for a in ARTIFACTS if a in self.__dict__)

    def check_unmodified(self) -> bool:
        """Return True iff the underlying graph still matches the snapshot.

        Compares the graph's monotonically increasing mutation ``version``, so
        *any* mutation since preparation is caught — even a mutation sequence
        that restores the original vertex and edge counts (the stale-cache
        hazard of the historical count-based snapshot).
        """
        return self.graph.version == self._snapshot

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """A flat dictionary for CLI output and engine statistics."""
        stats = self.statistics
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "vertices": stats.vertex_count,
            "edges": stats.edge_count,
            "edge_density": stats.edge_density,
            "max_degree": stats.max_degree,
            "degeneracy": self.degeneracy,
            "components": len(self.components),
            "largest_component": len(self.components[0]) if self.components else 0,
            "artifacts": list(self.materialized_artifacts()),
        }

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return (f"PreparedGraph({label}|V|={self.graph.vertex_count}, "
                f"|E|={self.graph.edge_count}, "
                f"artifacts={len(self.materialized_artifacts())}/{len(ARTIFACTS)})")


def prepare_graph(graph: Graph | PreparedGraph, name: str | None = None) -> PreparedGraph:
    """Return ``graph`` as a :class:`PreparedGraph` (idempotent)."""
    if isinstance(graph, PreparedGraph):
        return graph
    return PreparedGraph(graph, name=name)


def as_plain_graph(graph: Graph | PreparedGraph) -> Graph:
    """Unwrap a :class:`PreparedGraph` to its underlying :class:`Graph`."""
    if isinstance(graph, PreparedGraph):
        return graph.graph
    return graph
