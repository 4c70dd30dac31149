"""Lightweight query-lifecycle tracing: spans, exporters, tree rendering.

A :class:`Span` is one timed segment of a request (catalog resolve, cache
lookup, single-flight wait, fuel derivation, engine evaluation, decode);
spans nest via a context variable, so the runtime never threads parent
handles explicitly.  A :class:`Tracer` hands out spans as context
managers — the ``finally`` in ``__exit__`` guarantees that *every* span
closes, including on :class:`~repro.errors.FuelExhausted` and timeouts —
and forwards finished spans to its exporters:

* :class:`RingBufferExporter` — a bounded in-memory buffer, the source for
  ``repro trace``'s span tree;
* :class:`JsonlExporter` — one JSON object per line, append-only, for
  offline analysis.

Tracing is **off by default**: the module-level default tracer is disabled
and a disabled tracer's :meth:`Tracer.span` returns a shared no-op span
without allocating anything, so the instrumented hot path costs one
attribute check per span site.

**Cross-process propagation.**  A trace crosses process boundaries as
plain data: the coordinator ships ``{"trace_id", "parent_id"}`` with a
shard task, the worker records its own spans with a
:class:`SpanRecorder` (no tracer, no contextvars — just nested dicts
in :meth:`Span.as_dict` shape), and the reply carries them back over
the pipe where :meth:`Tracer.ingest` grafts them into the
coordinator's exporters.  At the HTTP edge the same ``trace_id``
travels in a W3C ``traceparent``-style header
(``00-<trace_id>-<parent_id>-01``; see :func:`parse_traceparent` /
:func:`format_traceparent`), so one tree spans edge → service →
workers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import deque
from contextvars import ContextVar, Token
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "JsonlExporter",
    "RingBufferExporter",
    "Span",
    "SpanRecorder",
    "Tracer",
    "current_span",
    "format_traceparent",
    "get_tracer",
    "make_trace_id",
    "parse_traceparent",
    "render_span_tree",
    "set_tracer",
]

#: The innermost open span of the current thread/context (spans started in
#: other threads do not inherit it: worker threads trace their own roots).
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional["Span"]:
    """The innermost open span in this context, if any."""
    span = _CURRENT_SPAN.get()
    return span if isinstance(span, Span) else None


class _NoopSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, name: str, value) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanBase:
    """The span shape :class:`Span` and :class:`RecordedSpan` share.

    ``start_unix`` is epoch wall time (for logs and JSONL correlation);
    durations come from the monotonic clock.  ``status`` is ``"ok"``
    unless :meth:`set_status` was called or the body raised.  Entering
    and leaving the span notify its owner (``_opened`` / ``_closed``),
    which nests and exports it.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "attrs", "status",
        "start_unix", "_start_perf", "duration_ms", "_owner",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        trace_id: str,
        attrs: Dict[str, object],
        owner,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attrs = attrs
        self.status = "ok"
        self.start_unix: float = 0.0
        self._start_perf: float = 0.0
        self.duration_ms: Optional[float] = None
        self._owner = owner

    def set_attr(self, name: str, value) -> None:
        self.attrs[name] = value

    def set_status(self, status: str) -> None:
        self.status = status

    def __enter__(self):
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._owner._opened(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.duration_ms = (
                time.perf_counter() - self._start_perf
            ) * 1000.0
            if exc_type is not None and self.status == "ok":
                self.status = "error"
                self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        finally:
            self._owner._closed(self)
        return False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "status": self.status,
            "start_unix": round(self.start_unix, 6),
            "duration_ms": (
                round(self.duration_ms, 3)
                if self.duration_ms is not None
                else None
            ),
            "attrs": dict(self.attrs),
        }


class Span(_SpanBase):
    """One timed, attributed segment of work, owned by a :class:`Tracer`
    (which makes it the context's current span while it is open)."""

    __slots__ = ("_token",)
    _token: Token


class Tracer:
    """Hands out spans and fans finished spans out to exporters.

    ``enabled=False`` (the default tracer's state) short-circuits
    :meth:`span` to a shared no-op object.  :meth:`open_spans` reports
    spans that were entered but not yet exited — after any request
    completes (ok, fuel-exhausted, errored, or abandoned by a timeout
    *and* finished in the background) it must drain back to zero.
    """

    def __init__(self, exporters: Sequence = (), *, enabled: bool = True):
        self.exporters = list(exporters)
        self.enabled = enabled
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open: Dict[str, Span] = {}

    def span(self, name: str, *, trace_id: Optional[str] = None, **attrs):
        """A context manager for one span; nests under the context's
        current open span.

        ``trace_id`` seeds the trace for a *root* span (e.g. the id a
        ``traceparent`` header carried in); when there is an open parent
        span in this context the parent's trace wins.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = _CURRENT_SPAN.get()
        span_id = f"{next(self._ids):012x}"
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
            trace = parent.trace_id
        else:
            parent_id = None
            trace = trace_id or span_id
        return Span(name, span_id, parent_id, trace, dict(attrs), self)

    def new_span_id(self) -> str:
        """A fresh span id (for synthesizing spans outside :meth:`span`,
        e.g. the coordinator-side ``shard.respawn`` marker)."""
        return f"{next(self._ids):012x}"

    def ingest(self, span_dicts: Iterable[dict]) -> List[Span]:
        """Graft already-finished spans (``Span.as_dict`` shape, e.g.
        recorded in a shard worker and shipped back over the pipe) into
        this tracer's exporters.

        The spans keep their own ids/parents/trace, so a worker subtree
        whose root points at a coordinator span id renders inside the
        coordinator's tree.  No-op when disabled.
        """
        if not self.enabled:
            return []
        grafted: List[Span] = []
        for data in span_dicts:
            span = Span(
                str(data.get("name", "span")),
                str(data.get("span_id", "")),
                data.get("parent_id"),
                str(data.get("trace_id", "")),
                dict(data.get("attrs") or {}),
                self,
            )
            span.status = str(data.get("status", "ok"))
            span.start_unix = float(data.get("start_unix") or 0.0)
            duration = data.get("duration_ms")
            span.duration_ms = float(duration) if duration is not None else None
            for exporter in self.exporters:
                exporter.export(span)
            grafted.append(span)
        return grafted

    def add_exporter(self, exporter) -> None:
        self.exporters.append(exporter)

    def open_spans(self) -> List[Span]:
        with self._lock:
            return list(self._open.values())

    # -- span lifecycle callbacks -------------------------------------------

    def _opened(self, span: Span) -> None:
        span._token = _CURRENT_SPAN.set(span)
        with self._lock:
            self._open[span.span_id] = span

    def _closed(self, span: Span) -> None:
        _CURRENT_SPAN.reset(span._token)
        with self._lock:
            self._open.pop(span.span_id, None)
        for exporter in self.exporters:
            exporter.export(span)


class RingBufferExporter:
    """Keeps the last ``capacity`` finished spans in memory."""

    def __init__(self, capacity: int = 2048):
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class JsonlExporter:
    """Appends each finished span as one JSON line to ``path``."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None

    def export(self, span: Span) -> None:
        line = json.dumps(span.as_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class RecordedSpan(_SpanBase):
    """One span captured by a :class:`SpanRecorder` (worker side): no
    tracer, contextvars, or locks — shard workers are single-threaded
    per task."""

    __slots__ = ()


class SpanRecorder:
    """Records spans in a process with no tracer, for shipping back.

    A shard worker builds one per task from the coordinator's trace
    context (``trace_id`` + the coordinator span to parent under),
    nests spans on a plain stack, and serializes the finished list —
    :meth:`Span.as_dict`-shaped dicts — into the reply, where
    :meth:`Tracer.ingest` grafts them into the coordinator's tree.
    ``prefix`` keeps worker span ids (e.g. ``w1234-1``) from colliding
    with the coordinator's counter-based ids across processes.
    """

    def __init__(
        self,
        trace_id: str,
        parent_id: Optional[str] = None,
        *,
        prefix: str = "w",
    ) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.prefix = prefix
        self._count = 0
        self._stack: List[RecordedSpan] = []
        self._finished: List[dict] = []

    def span(self, name: str, **attrs) -> RecordedSpan:
        self._count += 1
        span_id = f"{self.prefix}-{self._count}"
        parent = self._stack[-1].span_id if self._stack else self.parent_id
        return RecordedSpan(
            name, span_id, parent, self.trace_id, dict(attrs), self
        )

    def spans(self) -> List[dict]:
        """The finished spans, in completion order."""
        return list(self._finished)

    def _opened(self, span: RecordedSpan) -> None:
        self._stack.append(span)

    def _closed(self, span: RecordedSpan) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self._finished.append(span.as_dict())


def make_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4)."""
    return uuid.uuid4().hex


def parse_traceparent(value: Optional[str]) -> Optional[str]:
    """The trace id from a W3C ``traceparent``-style header, if usable.

    Lenient: accepts ``00-<trace>-<span>-<flags>`` and returns the
    trace field when it is non-zero hex; anything malformed yields
    ``None`` (the caller mints a fresh id).
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) < 2:
        return None
    trace = parts[1].lower()
    if not trace or any(ch not in "0123456789abcdef" for ch in trace):
        return None
    if set(trace) == {"0"}:
        return None
    return trace


def format_traceparent(trace_id: str, span_id: str = "") -> str:
    """Render a W3C-shaped ``traceparent`` value for response headers."""
    trace = (trace_id or make_trace_id()).ljust(32, "0")[:32]
    span = (span_id or "0").ljust(16, "0")[:16]
    return f"00-{trace}-{span}-01"


def render_span_tree(spans: Sequence[Span], *, attrs: bool = True) -> str:
    """Render finished spans as an indented tree (roots in start order).

    Orphans (parent not in the list, e.g. evicted from the ring buffer)
    are promoted to roots rather than dropped.
    """
    by_id = {span.span_id: span for span in spans}
    children: Dict[Optional[str], List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: s.start_unix)
    roots.sort(key=lambda s: s.start_unix)

    lines: List[str] = []

    def describe(span: Span) -> str:
        duration = (
            f"{span.duration_ms:.2f}ms"
            if span.duration_ms is not None
            else "?ms"
        )
        parts = [span.name, duration]
        if span.status != "ok":
            parts.append(f"status={span.status}")
        if attrs:
            parts.extend(
                f"{key}={value}"
                for key, value in sorted(span.attrs.items())
                if value is not None
                and not (key == "status" and value == span.status)
            )
        return " ".join(parts)

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(describe(span))
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + describe(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span.span_id, [])
        for index, child in enumerate(kids):
            walk(child, child_prefix, index == len(kids) - 1, False)

    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)


_default_tracer = Tracer(enabled=False)
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled until configured)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide default tracer; returns the previous."""
    global _default_tracer
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer
    return previous
