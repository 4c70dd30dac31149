"""Spans recorded around calls into each layer's public functions.

The traced run installs wrappers from this file; the program's code is
not changed.  Each wrapper replaces one name *where its caller looks it
up* (a module global such as ``repro.service.runtime.decode_relation``,
or a class attribute such as ``ResultCache.get``) and records a span:
name, start, end, parent span and trace id.  Parents come from a
context variable, so spans nest per thread and per asyncio task.  Spans
stay in memory; the benchmark aggregates them when the run ends.

A span's self time is its duration minus its children's durations
(children of one span run one after another on its thread).  Work a
wrapper does after a call returns -- counting new rows of a fixpoint
stage -- is stored on the span and subtracted from its parent too.
"""

from __future__ import annotations

import contextvars
import importlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

# Span record layout (a list, for speed):
NAME, START, END, PARENT, TRACE, VALUE, OVERHEAD = range(7)


def _new_rows(args, kwargs, result) -> Tuple[int, int]:
    """(tuples new at this stage, tuples the stage produced) for
    ``evaluate_ra(step, step_db)``; the previous stage is bound in the
    step database as ``__FIX__``."""
    database = args[1] if len(args) > 1 else kwargs["database"]
    previous = set(database["__FIX__"].tuples)
    rows = result.tuples
    return sum(1 for row in rows if row not in previous), len(rows)


def _trace_from_headers(args, kwargs) -> Optional[str]:
    # Authenticator.principal(self, headers, peer): the first call of a
    # request on the edge, so it starts that request's trace.
    headers = args[1] if len(args) > 1 else kwargs["headers"]
    value = headers.get("traceparent", "")
    parts = value.split("-")
    return parts[1] if len(parts) > 2 else None


def _trace_from_request(args, kwargs) -> Optional[str]:
    request = args[1] if len(args) > 1 else kwargs["request"]
    return request.trace_id


#: (owner, attribute, span name, options).  ``owner`` is a module path,
#: or ``module:Class`` for a method.  Options: ``async`` wraps a
#: coroutine function; ``trace`` reads the trace id from the arguments;
#: ``sticky`` keeps that trace id for the rest of the task (the edge's
#: later calls for the same request carry no id); ``value`` computes a
#: per-call value from (args, kwargs, result).
WRAP_POINTS: Tuple[Tuple[str, str, str, dict], ...] = (
    # http: the edge's request path (edge process only).
    ("repro.http.auth:Authenticator", "principal", "http.auth",
     {"trace": _trace_from_headers, "sticky": True}),
    ("repro.http.ratelimit:RateLimiter", "allow", "http.auth", {}),
    ("repro.http.server", "parse_query_body", "http.parse", {}),
    ("repro.http.server", "check_schema_contract", "http.price", {}),
    ("repro.http.server", "read_set_stats", "http.price", {}),
    ("repro.http.server", "fuel_budget", "http.price", {}),
    ("repro.http.admission:AdmissionController", "admit", "http.admit",
     {"async": True}),
    ("repro.http.server", "render_query_response", "http.render", {}),
    ("repro.http.server", "json_response", "http.render", {}),
    # service: runtime, catalog, cache.
    ("repro.service.runtime:QueryService", "execute", "service.execute",
     {"trace": _trace_from_request}),
    ("repro.service.runtime:QueryService", "apply_update",
     "service.update", {}),
    ("repro.service.catalog:Catalog", "get_query", "catalog.get", {}),
    ("repro.service.catalog:Catalog", "get_database", "catalog.get", {}),
    ("repro.service.catalog:Catalog", "register_database",
     "service.register_db", {}),
    ("repro.service.catalog", "database_digest", "service.digest", {}),
    ("repro.service.cache:ResultCache", "get", "service.cache_get", {}),
    ("repro.service.cache:ResultCache", "invalidate_relations",
     "service.invalidate", {}),
    # obs: the flight recorder.
    ("repro.obs.flight:FlightRecorder", "record", "obs.flight", {}),
    # compile: registration-time lowering, the executor, the fixpoint.
    ("repro.compile.engine", "compile_term_plan", "compile.lower", {}),
    ("repro.compile.executor", "execute", "compile.exec", {}),
    ("repro.service.runtime", "run_fixpoint_query_compiled",
     "compile.fixpoint", {}),
    # relalg: one call per fixpoint stage.
    ("repro.compile.fixpoint", "evaluate_ra", "relalg.stage",
     {"value": _new_rows}),
    # db: encodings built inside an evaluation, inside the catalog, and
    # the runtime's decode of a term result.
    ("repro.db.encode", "encode_relation", "db.encode_result", {}),
    ("repro.compile.fixpoint", "encode_relation", "db.encode_result", {}),
    ("repro.shard.executor", "encode_relation", "db.encode_result", {}),
    ("repro.service.catalog", "encode_relation", "db.encode_update", {}),
    ("repro.service.runtime", "decode_relation", "db.decode", {}),
    # analysis: size statistics and certification.
    ("repro.analysis.cost:DatabaseStats", "of", "analysis.stats", {}),
    ("repro.service.catalog", "analyze_term", "analysis.certify", {}),
    ("repro.service.catalog", "analyze_fixpoint", "analysis.certify", {}),
    # shard: partition, dispatch to the worker pool, merge.
    ("repro.shard.executor", "partition_database", "shard.partition", {}),
    ("repro.shard.pool:ShardWorkerPool", "run_batch", "shard.dispatch", {}),
    ("repro.shard.executor", "merge_relations", "shard.merge", {}),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Recorder:
    """Installs the wrappers and keeps every finished span in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None
        )
        self._trace: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_trace", default=None
        )
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _sync(self, name: str, fn: Callable, options: dict) -> Callable:
        spans = self.spans
        parent_var = self._parent
        trace_var = self._trace
        trace_of = options.get("trace")
        sticky = options.get("sticky", False)
        value_of = options.get("value")

        def wrapper(*args, **kwargs):
            trace_token = None
            if trace_of is not None:
                trace_id = trace_of(args, kwargs)
                if sticky:
                    trace_var.set(trace_id)
                else:
                    trace_token = trace_var.set(trace_id)
            record = [name, 0.0, 0.0, parent_var.get(), trace_var.get(),
                      None, 0.0]
            token = parent_var.set(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                parent_var.reset(token)
                if trace_token is not None:
                    trace_var.reset(trace_token)
                spans.append(record)
            if value_of is not None:
                record[VALUE] = value_of(args, kwargs, result)
                record[OVERHEAD] = perf_counter() - record[END]
            return result

        return wrapper

    def _async(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        parent_var = self._parent
        trace_var = self._trace

        async def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, parent_var.get(), trace_var.get(),
                      None, 0.0]
            token = parent_var.set(record)
            record[START] = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                parent_var.reset(token)
                spans.append(record)

        return wrapper

    def install(self) -> None:
        """Wrap every point that exists (a renamed or deleted function is
        listed in :attr:`missing` and its spans are simply absent)."""
        if self._installed:
            return
        self.missing = []
        for owner_path, attr, name, options in WRAP_POINTS:
            try:
                owner = _resolve_owner(owner_path)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
            if raw is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._sync(name, raw.__func__, options)
                )
            elif options.get("async"):
                wrapped = self._async(name, raw)
            else:
                wrapped = self._sync(name, raw, options)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    # -- export ---------------------------------------------------------------

    def export(self) -> List[list]:
        """Spans as plain lists with parent indices (picklable / JSON)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            [r[NAME], r[START], r[END],
             index.get(id(r[PARENT]), -1) if r[PARENT] is not None else -1,
             r[TRACE], r[VALUE], r[OVERHEAD]]
            for r in self.spans
        ]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class SpanTable:
    """Exported spans with the derived quantities the metrics need."""

    def __init__(self, rows: List[list]) -> None:
        self.rows = rows
        count = len(rows)
        self.children_time = [0.0] * count
        for row in rows:
            parent = row[3]
            if parent >= 0:
                self.children_time[parent] += (row[2] - row[1]) + row[6]

    def duration(self, i: int) -> float:
        return self.rows[i][2] - self.rows[i][1]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.children_time[i]

    def has_ancestor(self, i: int, names) -> bool:
        parent = self.rows[i][3]
        while parent >= 0:
            if self.rows[parent][0] in names:
                return True
            parent = self.rows[parent][3]
        return False

    def select(self, name: str, *, under=None, not_under=None) -> List[int]:
        """Indices of spans called ``name``, optionally only those with
        (``under``) or without (``not_under``) an ancestor named in the
        given set."""
        out = []
        for i, row in enumerate(self.rows):
            if row[0] != name:
                continue
            if under is not None and not self.has_ancestor(i, under):
                continue
            if not_under is not None and self.has_ancestor(i, not_under):
                continue
            out.append(i)
        return out

    def mean_duration(self, indices: List[int], scale: float) -> float:
        if not indices:
            return 0.0
        return statistics.fmean(self.duration(i) for i in indices) * scale

    def mean_self(self, indices: List[int], scale: float) -> float:
        if not indices:
            return 0.0
        return statistics.fmean(self.self_time(i) for i in indices) * scale

    def by_trace(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for i, row in enumerate(self.rows):
            if row[4]:
                out.setdefault(row[4], []).append(i)
        return out
