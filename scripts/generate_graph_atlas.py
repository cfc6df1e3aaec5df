#!/usr/bin/env python
"""Write networkx's graph atlas to the edge-list fixture of the exhaustive tests.

The atlas holds every graph on at most seven vertices, one per isomorphism
class.  The 1,252 non-empty ones go to ``tests/data/graph_atlas.txt``, one
per line::

    <atlas index> <vertex count> <edge> <edge> ...

Vertices are ``0 .. n-1`` and each edge is written as its two endpoint
digits (``01`` is the edge 0-1).  Only this script needs networkx; the tests
read the committed file.

Run from the repo root:  python scripts/generate_graph_atlas.py
"""

from __future__ import annotations

import argparse
from pathlib import Path

import networkx as nx

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "graph_atlas.txt"


def atlas_lines() -> list[str]:
    lines = []
    for index, graph in enumerate(nx.graph_atlas_g()):
        n = graph.number_of_nodes()
        if n == 0:
            continue
        assert sorted(graph.nodes()) == list(range(n)) and n <= 7
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
        lines.append(" ".join([str(index), str(n)] + [f"{u}{v}" for u, v in edges]))
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    lines = atlas_lines()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(
        f"# networkx {nx.__version__} graph_atlas_g(): {len(lines)} non-empty "
        "graphs on <= 7 vertices\n"
        "# <atlas index> <vertex count> <edges as endpoint digit pairs>\n"
        + "\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} graphs to {args.output}")


if __name__ == "__main__":
    main()
