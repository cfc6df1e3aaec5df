"""Additional graph interchange formats: adjacency lists, JSON and DIMACS.

The KONECT-style edge list (``repro.graph.io``) is the primary format; these
extra readers/writers make it easy to pull graphs out of other tooling:

* *adjacency list* — one line per vertex: ``v: n1 n2 n3`` (the separator is
  optional), as produced by many network-analysis scripts,
* *JSON* — ``{"vertices": [...], "edges": [[u, v], ...]}``, convenient for web
  tooling and for storing enumeration results next to their input, and
* *DIMACS* — the classic ``p edge n m`` / ``e u v`` format used by the clique
  and colouring communities (vertices are 1-based integers).
"""

from __future__ import annotations

import json
import os
from typing import TextIO, Union

from .graph import Graph, GraphError
from .io import _maybe_int, opened

PathLike = Union[str, os.PathLike]


# ----------------------------------------------------------------------
# Adjacency lists
# ----------------------------------------------------------------------
def read_adjacency_list(path_or_file: Union[PathLike, TextIO], as_int: bool = True) -> Graph:
    """Read an adjacency-list file: ``vertex[:] neighbour neighbour ...`` per line."""
    with opened(path_or_file, "r") as handle:
        graph = Graph()
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            head, _, tail = line.partition(":")
            if _:
                tokens = [head.strip()] + tail.split()
            else:
                tokens = line.split()
            if not tokens:
                continue
            labels = [(_maybe_int(t) if as_int else t) for t in tokens]
            vertex = labels[0]
            graph.add_vertex(vertex)
            for neighbour in labels[1:]:
                if neighbour == vertex:
                    raise GraphError(f"line {line_number}: self-loop on {vertex!r}")
                graph.add_edge(vertex, neighbour)
        return graph


def write_adjacency_list(graph: Graph, path_or_file: Union[PathLike, TextIO]) -> None:
    """Write the graph as an adjacency list (``v: n1 n2 ...`` per vertex)."""
    with opened(path_or_file, "w") as handle:
        for vertex in graph.vertices():
            neighbours = " ".join(str(n) for n in sorted(graph.neighbors(vertex), key=str))
            handle.write(f"{vertex}: {neighbours}\n")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def graph_to_json_dict(graph: Graph) -> dict:
    """Return the JSON-serialisable dictionary representation of the graph."""
    return {
        "vertices": list(graph.vertices()),
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_from_json_dict(data: dict) -> Graph:
    """Build a graph from the dictionary produced by :func:`graph_to_json_dict`."""
    if "edges" not in data:
        raise GraphError("JSON graph document must contain an 'edges' list")
    return Graph(edges=[tuple(edge) for edge in data["edges"]],
                 vertices=data.get("vertices"))


def read_json_graph(path_or_file: Union[PathLike, TextIO]) -> Graph:
    """Read a graph from a JSON document."""
    with opened(path_or_file, "r") as handle:
        return graph_from_json_dict(json.load(handle))


def write_json_graph(graph: Graph, path_or_file: Union[PathLike, TextIO],
                     indent: int | None = None) -> None:
    """Write a graph as a JSON document."""
    with opened(path_or_file, "w") as handle:
        json.dump(graph_to_json_dict(graph), handle, indent=indent)


# ----------------------------------------------------------------------
# DIMACS
# ----------------------------------------------------------------------
def read_dimacs(path_or_file: Union[PathLike, TextIO]) -> Graph:
    """Read a DIMACS ``p edge`` file (``c`` comments, ``e u v`` edge lines)."""
    with opened(path_or_file, "r") as handle:
        graph = Graph()
        declared_vertices = None
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphError(f"line {line_number}: malformed problem line {line!r}")
                declared_vertices = int(parts[2])
                for vertex in range(1, declared_vertices + 1):
                    graph.add_vertex(vertex)
            elif parts[0] == "e":
                if len(parts) < 3:
                    raise GraphError(f"line {line_number}: malformed edge line {line!r}")
                u, v = int(parts[1]), int(parts[2])
                if u == v:
                    continue
                graph.add_edge(u, v)
            else:
                raise GraphError(f"line {line_number}: unknown DIMACS record {parts[0]!r}")
        if declared_vertices is None:
            raise GraphError("DIMACS file has no 'p edge' problem line")
        return graph


def write_dimacs(graph: Graph, path_or_file: Union[PathLike, TextIO],
                 comment: str = "") -> None:
    """Write the graph in DIMACS format (vertices renumbered to 1..n)."""
    with opened(path_or_file, "w") as handle:
        if comment:
            for line in comment.splitlines():
                handle.write(f"c {line}\n")
        handle.write(f"p edge {graph.vertex_count} {graph.edge_count}\n")
        index_of = {label: position + 1 for position, label in enumerate(graph.vertices())}
        for u, v in graph.edges():
            handle.write(f"e {index_of[u]} {index_of[v]}\n")
