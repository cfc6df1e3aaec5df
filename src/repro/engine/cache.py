"""Bounded LRU cache for MQCE query results.

Results are keyed by :meth:`ResultCache.spec_key`: the content fingerprint
plus the resolved spec's :meth:`~repro.api.QuerySpec.cache_key` — everything
that determines the *content* of an
:class:`~repro.pipeline.results.EnumerationResult`.  The spec normalises gamma
through :func:`~repro.quasiclique.definitions.gamma_fraction`, so ``0.9`` and
``Fraction(9, 10)`` address the same entry, exactly as they define the same
quasi-clique threshold.

The cache is a plain ``OrderedDict`` LRU with hit / miss / eviction / insert
counters; it stores whatever the engine puts in it and never copies — the
engine is responsible for handing out defensive copies of mutable results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, asdict
from typing import Any, Hashable

from ..obs.metrics import REGISTRY

DEFAULT_CAPACITY = 128

# Process-wide cache metrics (every ResultCache in the process feeds them;
# the per-instance CacheStats dataclass remains the per-cache view).
_HITS = REGISTRY.counter("repro_cache_hits_total",
                         "Result-cache lookups served from the cache")
_MISSES = REGISTRY.counter("repro_cache_misses_total",
                           "Result-cache lookups that found no entry")
_EVICTIONS = REGISTRY.counter("repro_cache_evictions_total",
                              "Entries evicted by the LRU capacity bound")
_INSERTS = REGISTRY.counter("repro_cache_inserts_total",
                            "Entries inserted into a result cache")
_DISCARDS = REGISTRY.counter("repro_cache_invalidations_total",
                             "Entries dropped by selective invalidation")
_REKEYS = REGISTRY.counter("repro_cache_rekeys_total",
                           "Entries re-addressed to a new graph fingerprint")


@dataclass
class CacheStats:
    """Counter snapshot of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


class ResultCache:
    """A bounded least-recently-used mapping with usage counters."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be a positive integer")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def spec_key(fingerprint: str, spec) -> tuple:
        """The canonical ``(fingerprint, spec)`` cache key.

        ``spec`` must be a *resolved* :class:`repro.api.QuerySpec` (no
        ``"auto"`` algorithm, no ``None`` branching/framework — see
        :meth:`QuerySpec.resolved`), so that a forced configuration and a
        planner-chosen identical configuration share one entry.  Budgets and
        output options are excluded by :meth:`QuerySpec.cache_key`.
        """
        return (fingerprint,) + spec.cache_key()

    # ------------------------------------------------------------------
    def peek(self, key: Hashable) -> Any | None:
        """Return the cached value without touching recency or the counters."""
        return self._entries.get(key)

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value (refreshing recency) or None, counting the lookup."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            _MISSES.inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        _HITS.inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the least recently used on overflow."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        self.stats.inserts += 1
        _INSERTS.inc()
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            _EVICTIONS.inc()

    def discard(self, key: Hashable) -> bool:
        """Remove an entry without touching the hit/miss counters.

        Used by selective invalidation (:meth:`repro.engine.MQCEEngine.sync`):
        the entry is dropped because its graph changed, which is neither a
        lookup nor a capacity eviction.  Returns True when the key existed.
        """
        if self._entries.pop(key, None) is not None:
            _DISCARDS.inc()
            return True
        return False

    def rekey(self, old_key: Hashable, new_key: Hashable) -> bool:
        """Move an entry to a new key, preserving its value and recency.

        An engine sync re-addresses cache entries that *survive* a graph
        mutation from the old content fingerprint to the new one, so warm hits
        keep working without re-enumeration.  Returns True when the old key
        existed (the value now lives under ``new_key``); an existing entry at
        ``new_key`` is overwritten.
        """
        try:
            value = self._entries.pop(old_key)
        except KeyError:
            return False
        self._entries[new_key] = value
        _REKEYS.inc()
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not touch recency or the counters."""
        return key in self._entries

    def keys(self) -> list:
        """Keys from least to most recently used."""
        return list(self._entries)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry; optionally reset the counters too."""
        self._entries.clear()
        if reset_stats:
            self.stats = CacheStats()

    def __repr__(self) -> str:
        return (f"ResultCache(size={len(self)}/{self.capacity}, "
                f"hits={self.stats.hits}, misses={self.stats.misses}, "
                f"evictions={self.stats.evictions})")
