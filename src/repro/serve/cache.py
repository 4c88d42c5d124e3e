"""Digest-keyed LRU result cache with byte/entry caps and counters.

Values are the canonical response *bytes* (never parsed objects): a hit
replays exactly what the first computation served, which is what makes
the cache-correctness contract — repeat submissions return the identical
report — trivially byte-exact (tests/serve/test_cache.py).

Thread-safe: the service's request threads hit :meth:`ResultCache.get`
concurrently while the dispatcher calls :meth:`ResultCache.put`.
Eviction is strict LRU over both caps; an over-cap value is refused
outright (counted in ``oversized``) rather than evicting the whole
cache for one giant entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

#: default caps — generous for report JSON (tens of KiB each)
DEFAULT_MAX_ENTRIES = 1024
DEFAULT_MAX_BYTES = 64 << 20


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the counters (taken under the lock)."""

    hits: int
    misses: int
    evictions: int
    oversized: int
    entries: int
    bytes: int
    max_entries: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "oversized": self.oversized,
            "entries": self.entries,
            "bytes": self.bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """LRU map of cache key (SHA-256 hex) to cached response bytes."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._oversized = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Presence probe — no counter or recency side effects (tests)."""
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[bytes]:
        """The cached bytes for ``key``, refreshing recency; None on miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: str, value: bytes) -> bool:
        """Store ``value``; evict LRU entries until both caps hold.

        Returns False (and stores nothing) when the value alone exceeds
        the byte cap.  Re-putting an existing key replaces the value —
        there is never a window where a lookup can see the old bytes
        after the new ones were stored.
        """
        size = len(value)
        with self._lock:
            if size > self.max_bytes:
                self._oversized += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = value
            self._bytes += size
            while (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self._evictions += 1
            return True

    def invalidate(self, key: str) -> bool:
        with self._lock:
            value = self._entries.pop(key, None)
            if value is None:
                return False
            self._bytes -= len(value)
            return True

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._oversized = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                oversized=self._oversized,
                entries=len(self._entries),
                bytes=self._bytes,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
            )
