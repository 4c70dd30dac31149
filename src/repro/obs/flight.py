"""The flight recorder: a bounded buffer of full EXPLAIN reports.

A :class:`FlightRecorder` retains the end-to-end evidence for the
requests worth keeping — every error, every request whose observed
steps approached or breached its static bound, the slowest N by wall
time, and anything that asked for ``explain: true`` — as structured
reports joining the *static* side (order certificate, cost polynomial
before/after abstract-interpretation tightening, read-set,
distribution class) with the *observed* side (engine, cache path,
per-shard fuel split vs. steps used, reduction profile, span
timings, bound ratio).

It doubles as a span **exporter**: finished spans are grouped by
trace id in a bounded pending map, and when the runtime records a
report for that trace the spans are attached to it.  Admission is
decided per report:

* ``explain`` — the caller asked for the report explicitly;
* ``error`` — terminal status other than ``ok``;
* ``bound_ratio`` — observed/certified steps above the threshold
  (the certifier's model is close to wrong for this plan);
* ``slow`` — among the slowest ``slowest`` requests seen so far.

Both maps are :class:`repro.lru.BoundedLRU` instances.  Records evict
LRU at ``capacity`` and are retrievable by trace id (``GET
/debug/flight?trace_id=...``, ``repro flight``); a lookup counts as
use.  Everything is stdlib and thread-safe: each map carries its own
lock, and the recorder's lock makes export, admission and ``clear``
atomic across both maps and the slow-cohort heap.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Dict, List, Optional

from repro.lru import BoundedLRU

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded retention of explain reports, keyed by trace id."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        slowest: int = 32,
        bound_ratio_threshold: float = 0.9,
        pending_traces: int = 512,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.slowest = max(0, int(slowest))
        self.bound_ratio_threshold = float(bound_ratio_threshold)
        self.pending_traces = max(1, int(pending_traces))
        self._lock = threading.Lock()
        #: trace_id -> list of finished span dicts not yet claimed by a
        #: report (least recently used trace dropped first).
        self._pending: BoundedLRU[str, List[dict]] = BoundedLRU(
            self.pending_traces
        )
        #: trace_id -> admitted report.
        self._records: BoundedLRU[str, dict] = BoundedLRU(self.capacity)
        #: min-heap of (wall_ms, seq) for the current slowest-N cohort.
        self._slow_heap: List[tuple] = []
        self._seq = itertools.count()
        self._admitted = 0
        self._rejected = 0

    # -- span exporter interface --------------------------------------------

    def export(self, span) -> None:
        """Collect a finished span under its trace until the report lands."""
        data = span.as_dict()
        trace_id = data.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            bucket = self._pending.get(trace_id)
            if bucket is None:
                bucket = []
                self._pending.put(trace_id, bucket)
            bucket.append(data)

    # -- report admission ---------------------------------------------------

    def record(self, report: dict) -> bool:
        """Consider ``report`` for retention; returns True if admitted.

        Always claims (and on rejection discards) the trace's pending
        spans, so the pending map cannot leak across requests.
        """
        trace_id = report.get("trace_id")
        with self._lock:
            spans = self._pending.pop(trace_id) if trace_id else None
            reasons = self._admission_reasons(report)
            if not reasons:
                self._rejected += 1
                return False
            if spans is not None:
                report = dict(report)
                report["spans"] = spans
            report["reasons"] = reasons
            report.setdefault("recorded_unix", round(time.time(), 3))
            self._admitted += 1
            self._records.put(trace_id or f"anon-{next(self._seq)}", report)
            return True

    def _admission_reasons(self, report: dict) -> List[str]:
        reasons: List[str] = []
        if report.get("explain_requested"):
            reasons.append("explain")
        if report.get("status") not in (None, "ok"):
            reasons.append("error")
        observed = report.get("observed") or {}
        ratio = observed.get("bound_ratio")
        if ratio is not None and ratio > self.bound_ratio_threshold:
            reasons.append("bound_ratio")
        wall_ms = report.get("wall_ms")
        if wall_ms is not None and self.slowest > 0:
            entry = (float(wall_ms), next(self._seq))
            if len(self._slow_heap) < self.slowest:
                heapq.heappush(self._slow_heap, entry)
                reasons.append("slow")
            elif entry[0] > self._slow_heap[0][0]:
                heapq.heapreplace(self._slow_heap, entry)
                reasons.append("slow")
        return reasons

    # -- retrieval ----------------------------------------------------------

    def lookup(self, trace_id: str) -> Optional[dict]:
        return self._records.get(trace_id)

    def records(
        self, *, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[dict]:
        """Retained reports, most recent first (filtered by trace id)."""
        if trace_id is not None:
            record = self._records.get(trace_id)
            return [record] if record is not None else []
        items = self._records.values()[::-1]
        if limit is not None:
            items = items[: max(0, int(limit))]
        return items

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._records),
                "admitted_total": self._admitted,
                "rejected_total": self._rejected,
                "pending_traces": len(self._pending),
                "slowest": self.slowest,
                "bound_ratio_threshold": self.bound_ratio_threshold,
            }

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._records.clear()
            self._slow_heap.clear()

    def __len__(self) -> int:
        return len(self._records)
