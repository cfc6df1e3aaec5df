"""Reading and writing edge-list graph files.

The paper's real datasets come from http://konect.cc/ in a whitespace-separated
edge-list format with optional ``%`` / ``#`` comment lines and optional extra
columns (weights, timestamps) that are ignored for the unweighted MQCE problem.
This module reads that format, plus a symmetric writer used by the examples.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import TextIO, Union

from .graph import Graph, GraphError

PathLike = Union[str, os.PathLike]

_COMMENT_PREFIXES = ("%", "#", "//")


@contextmanager
def opened(path_or_file: Union[PathLike, TextIO], mode: str) -> Iterator[TextIO]:
    """An open file object as given, or the path opened as UTF-8 text (and
    closed on exit)."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode, encoding="utf-8") as handle:
            yield handle


def iter_edge_list(lines: Iterable[str], directed_duplicates_ok: bool = True
                   ) -> Iterator[tuple[str, str]]:
    """Yield (u, v) label pairs from edge-list lines.

    Comment lines, blank lines and self-loops are skipped; extra columns after
    the first two are ignored.  Vertex labels are kept as strings.

    With ``directed_duplicates_ok=False`` a pair that occurs more than once —
    in either orientation, e.g. ``1 2`` followed later by ``2 1`` — raises
    :class:`GraphError` naming the offending line.  Detection keeps one seen
    set of undirected pairs, so it costs O(E) extra memory; leave the flag on
    (the default) for KONECT-style files that legitimately list both
    directions of each edge.
    """
    seen: set[tuple[str, str]] | None = None if directed_duplicates_ok else set()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise GraphError(f"line {line_number}: expected at least two columns, got {line!r}")
        u, v = parts[0], parts[1]
        if u == v:
            continue
        if seen is not None:
            pair = (u, v) if u <= v else (v, u)
            if pair in seen:
                raise GraphError(
                    f"line {line_number}: duplicate edge {u!r} -- {v!r}")
            seen.add(pair)
        yield u, v


def read_edge_list(path_or_file: Union[PathLike, TextIO], as_int: bool = True,
                   directed_duplicates_ok: bool = True) -> Graph:
    """Read an edge-list file into a :class:`Graph`.

    Parameters
    ----------
    path_or_file:
        File path or an open text file object.
    as_int:
        If true (default), vertex labels that look like integers are converted
        to ``int`` so they round-trip with the synthetic generators.
    directed_duplicates_ok:
        When false, a pair listed twice (either orientation) raises
        :class:`GraphError` naming the line — see :func:`iter_edge_list`.
    """
    graph = Graph()
    with opened(path_or_file, "r") as handle:
        for u, v in iter_edge_list(handle,
                                   directed_duplicates_ok=directed_duplicates_ok):
            if as_int:
                u = _maybe_int(u)
                v = _maybe_int(v)
            graph.add_edge(u, v)
    return graph


def ingest_edge_list(path_or_file: Union[PathLike, TextIO], as_int: bool = True,
                     directed_duplicates_ok: bool = True):
    """Stream an edge-list file into a CSR-backed graph (O(V + E) memory).

    Unlike :func:`read_edge_list`, which inserts every edge into the dict /
    full-width-bitmask :class:`Graph` (O(n^2) bits — unusable at the paper's
    10^5-10^7-vertex dataset sizes), this path interns the raw tokens to
    dense indices as lines stream by (so ``as_int`` converts each distinct
    label once), accumulates the endpoints in flat ``array`` buffers, and
    builds a :class:`repro.core.csr.CSRGraph` in one pass; at no point does a
    per-vertex set, list or bitmask exist, and int labels end up in one
    ``array('q')``.  The returned graph is read-only (mutations raise
    :class:`GraphError`; ``thaw()`` converts back) and has the vertex order,
    edges and answers of :func:`read_edge_list` on the same file.
    """
    from ..core.csr import CSRGraph, build_csr_arrays, intern_endpoints, label_storage

    tokens: dict[str, int] = {}
    with opened(path_or_file, "r") as handle:
        endpoints = intern_endpoints(iter_edge_list(
            handle, directed_duplicates_ok=directed_duplicates_ok), tokens)
    # _maybe_int maps distinct tokens to distinct labels, so the index order
    # carries over.  The token table goes before the labels are stored, and
    # the tokens go before the graph indexes its labels.
    tokens = list(tokens)
    labels = label_storage(map(_maybe_int, tokens) if as_int else tokens)
    del tokens
    indptr, indices, edge_count = build_csr_arrays(len(labels), *endpoints)
    del endpoints
    return CSRGraph(labels, indptr, indices, edge_count=edge_count)


def _maybe_int(label: str):
    """Convert a label to ``int`` only when the text is the canonical decimal
    form — ``str(int(label)) == label``.  A bare ``int()`` call would merge
    distinct labels: ``"01"``, ``"+1"`` and ``"1"`` all parse to ``1``,
    silently collapsing vertices (and dropping edges) on real edge-list files
    that use zero-padded or signed identifiers.
    """
    try:
        value = int(label)
    except ValueError:
        return label
    return value if str(value) == label else label


def write_edge_list(graph: Graph, path_or_file: Union[PathLike, TextIO],
                    header: str = "") -> None:
    """Write a graph as a whitespace-separated edge list."""
    with opened(path_or_file, "w") as handle:
        for line in header.splitlines():
            handle.write(f"% {line}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_quasi_cliques(path: PathLike) -> list[frozenset]:
    """Read one quasi-clique per line (whitespace-separated vertex labels)."""
    result = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            result.append(frozenset(_maybe_int(token) for token in line.split()))
    return result


def write_quasi_cliques(quasi_cliques: Iterable[frozenset], path: PathLike) -> None:
    """Write quasi-cliques one per line, vertices sorted for determinism."""
    with open(path, "w", encoding="utf-8") as handle:
        for clique in quasi_cliques:
            handle.write(" ".join(str(v) for v in sorted(clique, key=str)) + "\n")
