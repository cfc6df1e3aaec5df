"""Mutation changelog for :class:`~repro.graph.graph.Graph`.

Every successful structural mutation of a graph (vertex or edge added or
removed) is recorded in its :class:`GraphDelta` as a :class:`GraphMutation`
carrying the graph ``version`` the mutation produced.  The version counter is
monotonically increasing and starts at 0 for an empty graph, so *any* change
to the graph content changes the version — unlike the historical
``(vertex_count, edge_count)`` snapshot, which an add-then-remove pair can
silently restore.

Recording is *lazily attached*: a graph only counts versions (one integer
increment per mutation) until the first access to ``graph.delta`` materialises
the changelog, so the enumeration hot paths — which build and discard many
internal subgraphs — never pay for records nobody will read.  Consumers
(notably :class:`repro.engine.PreparedGraph` and the
:class:`repro.engine.MQCEEngine` syncs over it) attach the changelog when they
bind to the graph, snapshot ``graph.version``, and later poll
:meth:`GraphDelta.since` for the mutations applied after that version.  The
log is bounded: for versions older than its retained history — including
everything that happened before it was attached — ``since`` returns ``None``
and the consumer must fall back to a full rebuild.  A composite operation such
as ``Graph.remove_vertex`` appears as its constituent ``remove_edge`` records
followed by one ``remove_vertex`` record, so replaying the log step by step
reproduces the exact graph evolution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Optional

#: Operation names a :class:`GraphMutation` can carry.
MUTATION_OPS = ("add_vertex", "add_edge", "remove_edge", "remove_vertex")

#: Default number of mutation records a graph retains.  Consumers that lag
#: further behind than this must rebuild from the full graph content.
DEFAULT_LOG_CAPACITY = 65536


@dataclass(frozen=True)
class GraphMutation:
    """One applied graph mutation: the operation, its operands and the version."""

    version: int
    op: str
    u: Hashable
    v: Optional[Hashable] = None

    @property
    def endpoints(self) -> tuple:
        """The vertex labels the mutation touches (one for vertex ops, two for edges)."""
        return (self.u,) if self.v is None else (self.u, self.v)

    def __repr__(self) -> str:
        operand = f"{self.u!r}" if self.v is None else f"{self.u!r}, {self.v!r}"
        return f"GraphMutation(v{self.version}: {self.op} {operand})"


class GraphDelta:
    """A bounded, versioned changelog of applied graph mutations."""

    def __init__(self, capacity: int | None = DEFAULT_LOG_CAPACITY,
                 start_version: int = 0) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("delta log capacity must be a positive integer or None")
        self._mutations: deque[GraphMutation] = deque(maxlen=capacity)
        self._version = start_version

    @property
    def version(self) -> int:
        """The version produced by the most recent mutation (0 when pristine)."""
        return self._version

    @property
    def capacity(self) -> int | None:
        return self._mutations.maxlen

    def record(self, op: str, u, v=None) -> GraphMutation:
        """Append one mutation, advancing the version; returns the record."""
        if op not in MUTATION_OPS:
            raise ValueError(f"unknown mutation op {op!r}; expected one of {MUTATION_OPS}")
        self._version += 1
        mutation = GraphMutation(version=self._version, op=op, u=u, v=v)
        self._mutations.append(mutation)
        return mutation

    def since(self, version: int) -> list[GraphMutation] | None:
        """Mutations applied after ``version``, oldest first.

        Returns ``None`` when the log no longer reaches back that far (the
        caller must rebuild from scratch), and ``[]`` when ``version`` is
        current.
        """
        if version >= self._version:
            return []
        # The log must still hold the record for `version + 1`.
        if not self._mutations or self._mutations[0].version > version + 1:
            return None
        # Walk from the newest record so the cost is O(gap), not O(log size).
        pending = []
        for mutation in reversed(self._mutations):
            if mutation.version <= version:
                break
            pending.append(mutation)
        pending.reverse()
        return pending

    def __len__(self) -> int:
        return len(self._mutations)

    def __iter__(self):
        return iter(self._mutations)

    def __repr__(self) -> str:
        return (f"GraphDelta(version={self._version}, retained={len(self)}, "
                f"capacity={self.capacity})")
