"""Per-client token-bucket rate limiting.

One bucket per principal (bearer-token identity, or peer address on an
open edge): ``rate`` tokens/second refill up to ``burst``.  A request
costs one token; an empty bucket is a 429 with a ``Retry-After`` derived
from the actual deficit, so well-behaved clients back off exactly as
long as needed.

Buckets live in a :class:`repro.lru.BoundedLRU` (an open edge sees
arbitrarily many peer addresses; the map must not grow without bound).
Evicting a cold bucket forgets at most ``burst`` tokens of credit — safe,
never unfair to hot clients.  One lock makes each refill-and-spend
atomic; the edge calls this from a single event loop, but the lock keeps
the class safe for threaded tests and future multi-loop setups.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Tuple

from repro.lru import BoundedLRU

__all__ = ["RateLimiter"]

#: Bound on distinct principals tracked at once.
MAX_BUCKETS = 4096


class RateLimiter:
    """Token buckets keyed by principal.  ``rate <= 0`` disables."""

    def __init__(
        self,
        rate: float,
        burst: int,
        *,
        max_buckets: int = MAX_BUCKETS,
        clock=time.monotonic,
    ) -> None:
        self._rate = float(rate)
        self._burst = float(max(1, burst))
        self._clock = clock
        # principal -> (tokens, last refill timestamp)
        self._buckets: BoundedLRU[str, Tuple[float, float]] = BoundedLRU(
            max_buckets
        )
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._rate > 0

    def allow(self, principal: str) -> Tuple[bool, Optional[float]]:
        """Spend one token.  Returns ``(allowed, retry_after_s)`` —
        ``retry_after_s`` is how long until one token exists again."""
        if not self.enabled:
            return True, None
        now = self._clock()
        with self._lock:
            tokens, last = self._buckets.get(principal) or (self._burst, now)
            tokens = min(self._burst, tokens + (now - last) * self._rate)
            if tokens >= 1.0:
                self._buckets.put(principal, (tokens - 1.0, now))
                return True, None
            self._buckets.put(principal, (tokens, now))
            return False, (1.0 - tokens) / self._rate
