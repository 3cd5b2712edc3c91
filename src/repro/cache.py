"""Small bounded LRU cache for memoized model evaluations.

Scheduling a network on an accelerator model is expensive (the DCO
optimizer searches tiling schedules per layer), so it is memoized at
two levels.  Each backend instance keeps its own LRU of results per
``(network, mode, size)``, with its own hit/miss statistics.  Beneath
it, :mod:`repro.deconv` keeps one process-wide LRU of solved schedules
per ``(layer, HWConfig)``, which every backend and model on the same
hardware shares.  A production stream server touches an open-ended set
of such keys — many resolutions, modes and networks over its lifetime
— so every memo must be *bounded*: this LRU evicts the
least-recently-used entry once ``maxsize`` is reached and reports
hit/miss statistics so the serving pipeline can surface its cache
efficiency.

>>> cache = LRUCache(maxsize=2)
>>> for key in "aba":
...     _ = cache.get_or_create(key, key.upper)
>>> cache.cache_info()
CacheInfo(hits=1, misses=2, maxsize=2, currsize=2)

The cache is thread-safe: a stream server fans frame requests out
across worker threads, so every public operation runs under one
re-entrant lock and hit/miss counts stay consistent.
:meth:`LRUCache.get_or_create` additionally guarantees the factory
for a given key runs at most once however many threads race on it —
without serializing unrelated work: the winner computes *outside*
the lock while the losers wait on a per-key event, and misses on
different keys compute concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

__all__ = ["CacheInfo", "LRUCache"]


class CacheInfo(NamedTuple):
    """Statistics snapshot (same shape as ``functools.lru_cache``'s)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    All operations hold an internal :class:`threading.RLock`; the lock
    is re-entrant so a :meth:`get_or_create` factory may itself read
    from the same cache (nested memoized lookups) without deadlocking.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        #: keys whose factory is in flight -> event the losers wait on
        self._pending: dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, computing and inserting it on a miss.

        Concurrent callers of the same key never compute it twice:
        exactly one thread (the first to miss) runs the factory —
        *outside* the cache lock, so misses on other keys and all
        hits proceed concurrently — while the losers wait on a
        per-key event and then hit the inserted value.  If the
        factory raises, the waiters wake and race to become the next
        owner.
        """
        while True:
            with self._lock:
                if key in self._data:
                    self._data.move_to_end(key)
                    self._hits += 1
                    return self._data[key]
                in_flight = self._pending.get(key)
                if in_flight is None:
                    self._pending[key] = threading.Event()
                    self._misses += 1
                    break  # this thread owns the computation
            in_flight.wait()
            # the owner finished (or failed); re-check from the top
        try:
            value = factory()
        except BaseException:
            with self._lock:
                self._pending.pop(key).set()
            raise
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            self._pending.pop(key).set()
        return value

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, self.maxsize, len(self._data))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
