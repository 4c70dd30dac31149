"""The result cache: query answers keyed by structural digests.

A query's normal form is a pure function of the query term and the encoded
database (strong normalization + Church-Rosser, Properties 1-2 of
Section 2.1), so caching is sound with a key of

    (query digest, database name, version key, engine)

where the query digest is the alpha-invariant content digest of
:func:`repro.lam.terms.digest`.  The *version key* comes in two shapes:

* a plain ``int`` — the database's global version (legacy whole-version
  keying, still used for plans without a provenance certificate);
* a tuple of ``(relation_name, relation_version)`` pairs — the plan's
  read-set **sub-vector** of the catalog's per-relation version vector.
  The result is a pure function of the relations the plan reads
  (TLI023), so the key stays valid across updates that bump only other
  relations — those hits are counted as ``provenance_saves``.  The
  wildcard pair ``("*", global_version)`` marks a non-exact read-set
  (TLI027): any relation bump invalidates it, i.e. exactly the legacy
  behavior.

Only *successful* evaluations are cached — a ``FuelExhausted`` under one
budget says nothing about larger budgets — so fuel and depth budgets are
deliberately not part of the key: any budget that reached the normal form
reached *the* normal form.

The cache is a bounded LRU, safe for concurrent use by the batch executor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from repro.db.decode import DecodedRelation
from repro.db.relations import Relation
from repro.lam.terms import Term

#: Either the database's global version or the read-set's
#: ``((relation_name, relation_version), ...)`` sub-vector (sorted;
#: ``("*", v)`` is the conservative wildcard).
VersionKey = Union[int, Tuple[Tuple[str, int], ...]]

#: (query digest, database key, version key, engine)
CacheKey = Tuple[str, str, VersionKey, str]

#: The wildcard relation name in a sub-vector version key.
WILDCARD = "*"


@dataclass(frozen=True)
class CachedResult:
    """A memoized evaluation outcome (always a success)."""

    relation: Relation
    decoded: DecodedRelation
    #: The normal form a reduction engine reached; ``None`` for set-engine
    #: results (``QueryResponse.normal_form`` rebuilds their term on read).
    normal_form: Optional[Term]
    engine: str
    steps: Optional[int]
    stages: Optional[int]
    compute_wall_ms: float
    #: The fuel budget the computing request ran under (None for engines
    #: that take no fuel); informational on later hits.
    fuel_budget: Optional[int] = None
    #: The computing request's reduction profile (step breakdown plus the
    #: static-bound comparison); replayed verbatim on later hits.
    profile: Optional[dict] = None
    #: The database's *global* version when the result was computed; a hit
    #: at a higher global version is a provenance save (the read-set key
    #: survived an update to relations the plan never scans).
    database_version: Optional[int] = None


@dataclass
class CacheStats:
    """Counters surfaced on every service response.

    ``inflight_waits`` counts requests that blocked behind an identical
    in-flight evaluation (single-flight sharing): those requests never
    performed an independent evaluation, and their subsequent lookup is a
    hit against the entry the leader populated.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    inflight_waits: int = 0
    #: Hits served from a read-set-keyed entry *after* the database's
    #: global version moved on — reuse the legacy whole-version
    #: invalidation would have destroyed.
    provenance_saves: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` over *lookups only*.

        Evictions and invalidations are bookkeeping, not lookups, so they
        do not dilute the rate: dropping a database's entries (or the
        LRU shedding cold ones) leaves the hit rate exactly where the
        lookup history put it.
        """
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "inflight_waits": self.inflight_waits,
            "provenance_saves": self.provenance_saves,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultCache:
    """Thread-safe bounded LRU from :data:`CacheKey` to
    :class:`CachedResult`."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._data: "OrderedDict[CacheKey, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._inflight_waits = 0
        self._provenance_saves = 0

    def get(self, key: CacheKey) -> Optional[CachedResult]:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: CacheKey, value: CachedResult) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def invalidate_database(self, database_key: str) -> int:
        """Drop every entry for ``database_key`` (all versions); returns the
        number of entries dropped.  Version bumps already make stale keys
        unreachable — this eagerly frees their memory."""
        with self._lock:
            stale = [k for k in self._data if k[1] == database_key]
            for k in stale:
                del self._data[k]
            self._invalidations += len(stale)
            return len(stale)

    def invalidate_relations(
        self, database_key: str, names: Iterable[str]
    ) -> int:
        """Relation-granular invalidation: drop the entries for
        ``database_key`` whose version key depends on a relation in
        ``names``.

        Three key shapes are affected: legacy ``int`` version keys (the
        plan has no read-set — the global version moved, so they are
        unreachable anyway; drop them eagerly), wildcard sub-vectors
        (TLI027 conservative top — depends on everything), and
        sub-vectors naming a touched relation.  Sub-vectors over disjoint
        relations *survive*: the result provably cannot have changed.
        Returns the number of entries dropped.
        """
        touched = set(names)
        with self._lock:
            stale = []
            for key in self._data:
                if key[1] != database_key:
                    continue
                version_key = key[2]
                if isinstance(version_key, int):
                    stale.append(key)
                elif any(
                    rel == WILDCARD or rel in touched
                    for rel, _ in version_key
                ):
                    stale.append(key)
            for key in stale:
                del self._data[key]
            self._invalidations += len(stale)
            return len(stale)

    def count_inflight_wait(self) -> None:
        """Record one request that waited behind an identical in-flight
        evaluation (called by the runtime's single-flight path)."""
        with self._lock:
            self._inflight_waits += 1

    def count_provenance_save(self) -> None:
        """Record one hit served across a global version bump thanks to
        read-set keying (called by the runtime's hit path)."""
        with self._lock:
            self._provenance_saves += 1

    def clear(self) -> None:
        with self._lock:
            self._invalidations += len(self._data)
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                inflight_waits=self._inflight_waits,
                provenance_saves=self._provenance_saves,
                size=len(self._data),
                capacity=self._capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
