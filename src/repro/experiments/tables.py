"""Reproduction of the paper's Table 1 on the synthetic dataset analogues.

Table 1 reports, per dataset: |V|, |E|, |E|/|V|, d, omega, the defaults
theta_d / gamma_d, the number of MQCs, the number of QCs returned by DCFastQC
and by Quick+ before the maximality filter, and the minimum / maximum / average
MQC size.  This module regenerates those rows (on the scaled-down analogues)
and also reports the original paper values for side-by-side comparison.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..datasets.registry import REGISTRY, get_spec
from ..graph.statistics import graph_statistics, quasi_clique_statistics
from ..pipeline.mqce import build_enumerator
from ..settrie.filter import filter_non_maximal


def table1_row(name: str, include_quickplus: bool = True) -> dict:
    """Compute one Table 1 row for a registered dataset analogue."""
    spec = get_spec(name)
    graph = spec.build()
    stats = graph_statistics(graph)
    gamma, theta = spec.default_gamma, spec.default_theta

    dcfastqc_candidates = build_enumerator(
        graph, gamma, theta, algorithm="dcfastqc").enumerate()
    maximal = filter_non_maximal(dcfastqc_candidates, theta=theta)
    sizes = quasi_clique_statistics(maximal)

    row = {
        "dataset": spec.name,
        "vertices": stats.vertex_count,
        "edges": stats.edge_count,
        "edge_density": stats.edge_density,
        "max_degree": stats.max_degree,
        "degeneracy": stats.degeneracy,
        "theta_default": theta,
        "gamma_default": gamma,
        "mqc_count": sizes.count,
        "dcfastqc_count": len(dcfastqc_candidates),
        "min_size": sizes.min_size,
        "max_size": sizes.max_size,
        "avg_size": sizes.avg_size,
        "paper_vertices": spec.paper.vertices,
        "paper_edges": spec.paper.edges,
        "paper_mqc_count": spec.paper.mqc_count,
    }
    if include_quickplus:
        quickplus_candidates = build_enumerator(
            graph, gamma, theta, algorithm="quickplus").enumerate()
        row["quickplus_count"] = len(quickplus_candidates)
    return row


def table1_rows(names: Sequence[str] | None = None, include_quickplus: bool = True) -> list[dict]:
    """Compute Table 1 rows for the requested datasets (all analogues by default)."""
    if names is None:
        names = list(REGISTRY)
    return [table1_row(name, include_quickplus=include_quickplus) for name in names]
