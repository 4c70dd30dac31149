"""The stack's one bounded map: a thread-safe least-recently-used cache.

Every bounded memo in the stack caches a pure function of its key.  A
query result is the plan's unique normal form (Church-Rosser, Section 2.1),
and compiled plans, digests, distribution verdicts and shard snapshots
are fixed by their digest keys, so eviction only trades memory for
recomputation and one policy serves them all: past ``capacity`` entries,
the least recently used key goes.

``get`` and ``put`` make a key the most recent; ``in``, ``len`` and the
snapshots leave the order alone.  The lock covers one operation: a caller
whose read-modify-write must be atomic holds its own lock around both
calls.  Stdlib only, so the lambda kernel can import it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, List, Optional, TypeVar

__all__ = ["BoundedLRU"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """At most ``capacity`` entries, least recently used evicted first.

    ``hits``, ``misses`` and ``evictions`` count ``get`` outcomes and
    entries ``put`` pushed out.  Values must not be ``None``: ``get``
    returns ``None`` for a missing key.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K) -> Optional[V]:
        """The value under ``key``, now the most recent; ``None`` on a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recent entry, evicting the least
        recent one past the bound."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def pop(self, key: K) -> Optional[V]:
        """Remove and return the value under ``key`` (``None`` if absent)."""
        with self._lock:
            return self._data.pop(key, None)

    def discard_if(self, predicate: Callable[[K], bool]) -> int:
        """Drop every key ``predicate`` accepts; returns how many went."""
        with self._lock:
            stale = [key for key in self._data if predicate(key)]
            for key in stale:
                del self._data[key]
            return len(stale)

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            return dropped

    def keys(self) -> List[K]:
        """A snapshot of the keys, least recent first."""
        with self._lock:
            return list(self._data)

    def values(self) -> List[V]:
        """A snapshot of the values, least recent first."""
        with self._lock:
            return list(self._data.values())

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
