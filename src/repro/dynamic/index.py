"""Selective cache invalidation: the vertex → entry index and the sync report.

A cached :class:`~repro.pipeline.results.EnumerationResult` concerns a
*vertex region*: the union of the vertices of its maximal quasi-cliques and
its MQCE-S1 candidates.  For γ >= 0.5 every quasi-clique has diameter at most
2 (the paper's Property 2), which localises the effect of a mutation: any
maximal quasi-clique that appears or disappears when an edge is touched lies
entirely inside the 2-hop neighbourhood of the touched endpoints.  The
:class:`CacheIndex` maps every vertex label to the cache entries whose region
contains it, so :meth:`repro.engine.MQCEEngine.sync` can find the entries a
mutation *might* affect in time proportional to the touched neighbourhood —
every other entry provably still holds the exact answer and survives
(re-addressed to the new graph fingerprint).

The index stores metadata only; result lists are shared by reference with the
:class:`~repro.engine.cache.ResultCache` values, so memory overhead is one
posting set per distinct vertex plus one small record per entry.
:class:`UpdateReport` describes one sync and :class:`UpdateStats` sums them
(and feeds the ``repro_dynamic_*`` metric families).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Hashable, Iterable

from ..obs.metrics import REGISTRY
from ..pipeline.results import EnumerationResult

# Process-wide dynamic-maintenance metrics.  invalidated vs. retained is the
# invalidation *selectivity*: how much of the warm cache each sync preserved.
_SYNCS = REGISTRY.counter("repro_dynamic_syncs_total",
                          "Engine syncs that drained pending mutations")
_MUTATIONS = REGISTRY.counter("repro_dynamic_mutations_total",
                              "Graph mutations reconciled by engine syncs, by op")
_INVALIDATED = REGISTRY.counter("repro_dynamic_entries_invalidated_total",
                                "Cache entries dropped by selective invalidation")
_RETAINED = REGISTRY.counter("repro_dynamic_entries_retained_total",
                             "Cache entries that survived an engine sync")
_REKEYED = REGISTRY.counter("repro_dynamic_entries_rekeyed_total",
                            "Surviving entries re-addressed to the new fingerprint")
_FULL_REBUILDS = REGISTRY.counter("repro_dynamic_full_rebuilds_total",
                                  "Syncs that fell back to a full rebuild")


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`repro.engine.MQCEEngine.sync` accomplished."""

    mutations: int = 0
    added_vertices: int = 0
    removed_vertices: int = 0
    added_edges: int = 0
    removed_edges: int = 0
    entries_before: int = 0
    invalidated: int = 0
    retained: int = 0
    rekeyed: int = 0
    full_rebuild: bool = False
    old_fingerprint: str = ""
    new_fingerprint: str = ""
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class UpdateStats:
    """Cumulative counters across every sync of one engine."""

    syncs: int = 0
    mutations: int = 0
    entries_invalidated: int = 0
    entries_retained: int = 0
    entries_rekeyed: int = 0
    full_rebuilds: int = 0
    operations: Counter = field(default_factory=Counter)

    def absorb(self, report: UpdateReport, by_op: Counter) -> None:
        self.syncs += 1
        self.mutations += report.mutations
        self.entries_invalidated += report.invalidated
        self.entries_retained += report.retained
        self.entries_rekeyed += report.rekeyed
        self.full_rebuilds += 1 if report.full_rebuild else 0
        self.operations.update(by_op)
        _SYNCS.inc()
        for op, count in by_op.items():
            _MUTATIONS.inc(count, op=op)
        if report.invalidated:
            _INVALIDATED.inc(report.invalidated)
        if report.retained:
            _RETAINED.inc(report.retained)
        if report.rekeyed:
            _REKEYED.inc(report.rekeyed)
        if report.full_rebuild:
            _FULL_REBUILDS.inc()

    def as_dict(self) -> dict:
        data = asdict(self)
        data["operations"] = dict(self.operations)
        return data


@dataclass(frozen=True)
class EntryMeta:
    """What selective invalidation needs to know about one cached entry.

    ``gamma`` / ``theta`` are the entry's quasi-clique parameters (gamma as
    the exact fraction used in the cache key), ``result_sets`` the maximal and
    candidate vertex sets of the cached result (shared by reference), and
    ``region`` their union.
    """

    gamma: object
    theta: int
    result_sets: tuple[frozenset, ...]
    region: frozenset


class CacheIndex:
    """An inverted index from vertex labels to registered cache entries."""

    def __init__(self) -> None:
        self._entries: dict[Hashable, EntryMeta] = {}
        self._postings: dict[Hashable, set[Hashable]] = {}

    # ------------------------------------------------------------------
    def register(self, key: Hashable, result: EnumerationResult,
                 gamma, theta: int) -> EntryMeta:
        """Index one cached entry (idempotent for an already-registered key)."""
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        result_sets = tuple(result.maximal_quasi_cliques) + tuple(
            result.candidate_quasi_cliques)
        region = frozenset().union(*result_sets) if result_sets else frozenset()
        meta = EntryMeta(gamma=gamma, theta=int(theta),
                         result_sets=result_sets, region=region)
        self._entries[key] = meta
        for label in region:
            self._postings.setdefault(label, set()).add(key)
        return meta

    def discard(self, key: Hashable) -> bool:
        """Drop one entry and its postings; returns True when it was present."""
        meta = self._entries.pop(key, None)
        if meta is None:
            return False
        for label in meta.region:
            postings = self._postings.get(label)
            if postings is not None:
                postings.discard(key)
                if not postings:
                    del self._postings[label]
        return True

    def rekey(self, old_key: Hashable, new_key: Hashable) -> bool:
        """Re-address one entry (used when the graph fingerprint changes)."""
        meta = self._entries.pop(old_key, None)
        if meta is None:
            return False
        self._entries[new_key] = meta
        for label in meta.region:
            postings = self._postings[label]
            postings.discard(old_key)
            postings.add(new_key)
        return True

    # ------------------------------------------------------------------
    def touching(self, labels: Iterable[Hashable]) -> set[Hashable]:
        """Keys of every entry whose region intersects ``labels``."""
        touched: set[Hashable] = set()
        for label in labels:
            touched |= self._postings.get(label, set())
        return touched

    def get(self, key: Hashable) -> EntryMeta | None:
        return self._entries.get(key)

    def items(self):
        return self._entries.items()

    def keys(self) -> list:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._postings.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return f"CacheIndex(entries={len(self)}, vertices={len(self._postings)})"
