"""Content fingerprints for graphs, used as cache keys by the query engine.

A fingerprint is a SHA-256 digest over a canonical serialisation of the graph:
the vertex labels in index order followed by the adjacency in CSR form, as
int64 buffers.  Two :class:`~repro.graph.graph.Graph` objects that hold the
same labelled vertices and edges (regardless of insertion order of the
*edges*, and of the backend: a :class:`~repro.core.csr.CSRGraph` and its
``thaw()`` agree) produce the same fingerprint; graphs that differ in any
vertex or edge do not, up to hash collisions.  Digests are per-process cache
keys: the buffers are hashed in native byte order.

Labels are serialised with ``repr``, so labels must have a stable ``repr``
(true for the strings/ints used throughout the library).  Vertex *index*
order matters: the same edge set added in a different vertex order is a
different prepared object (its bitmask layout differs), and the fingerprint
reflects that.

A mutated graph keeps the digest of the content it was prepared with and adds
an :class:`IncrementalFingerprint` of the edits since: each vertex label and
each edge is hashed independently (128 bits each) and the hashes are XORed
into two accumulators, so one edit costs O(1), and reverting an edit restores
the accumulators (and with them the original digest).  Because the graph is
simple, every element is present 0 or 1 times, which makes XOR an exact
multiset digest here; accidental cancellation between *distinct* elements is
a 2^-128 event, negligible for an in-process result cache.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Iterator
from itertools import accumulate

from ..graph.graph import Graph

#: Number of hex digits kept from the SHA-256 digest (64 bits of collision
#: resistance, plenty for a per-process result cache).
FINGERPRINT_LENGTH = 16

#: Bytes per per-element hash / accumulator.
_ACC_BYTES = 16


def graph_fingerprint(graph: Graph, length: int = FINGERPRINT_LENGTH) -> str:
    """Return a hex content fingerprint of ``graph``.

    The digest covers the vertex and edge counts, every label's ``repr`` in
    index order and the adjacency rows (:func:`_csr_rows`), so it is
    invariant to edge insertion order but sensitive to any content change.
    """
    hasher = hashlib.sha256()
    hasher.update(f"V:{graph.vertex_count};E:{graph.edge_count};".encode())
    hasher.update("\x00".join(map(repr, graph)).encode())
    hasher.update(b"\x00")
    for buffer in _csr_rows(graph):
        hasher.update(buffer)
    return hasher.hexdigest()[:length]


def _csr_rows(graph: Graph) -> Iterator:
    """The adjacency as int64 buffers: the ``n + 1`` row offsets, then the
    rows sorted ascending — a CSR graph's own arrays read in place, or the
    same bytes from a dict graph's sorted sets."""
    if getattr(graph, "indptr", None) is not None:
        yield memoryview(graph.indptr)
        yield memoryview(graph.indices)
        return
    rows = [graph.adjacency_set(i) for i in range(graph.vertex_count)]
    yield array("q", accumulate(map(len, rows), initial=0))
    for row in rows:
        yield array("q", sorted(row))


def _element_hash(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:_ACC_BYTES], "big")


class IncrementalFingerprint:
    """An XOR-of-hashes digest of graph edits with O(1) cost per edit."""

    __slots__ = ("_vertex_acc", "_edge_acc")

    def __init__(self) -> None:
        self._vertex_acc = 0
        self._edge_acc = 0

    def toggle_vertex(self, label) -> None:
        """XOR one vertex label in (when absent) or out (when present)."""
        self._vertex_acc ^= _element_hash(b"v\x00" + repr(label).encode())

    def toggle_edge(self, u, v) -> None:
        """XOR one undirected edge in or out (endpoint order canonicalised)."""
        a, b = sorted((repr(u), repr(v)))
        self._edge_acc ^= _element_hash(f"e\x00{a}\x00{b}".encode())

    def hexdigest(self, base: str = "", length: int = FINGERPRINT_LENGTH) -> str:
        """The digest of ``base`` (a content fingerprint) and the edits."""
        payload = (base.encode() + b"\x00"
                   + self._vertex_acc.to_bytes(_ACC_BYTES, "big")
                   + self._edge_acc.to_bytes(_ACC_BYTES, "big"))
        return hashlib.sha256(payload).hexdigest()[:length]

    def __bool__(self) -> bool:
        """True while some edit is not reverted."""
        return bool(self._vertex_acc or self._edge_acc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IncrementalFingerprint)
                and self._vertex_acc == other._vertex_acc
                and self._edge_acc == other._edge_acc)

    def __repr__(self) -> str:
        return f"IncrementalFingerprint({self.hexdigest()})"
