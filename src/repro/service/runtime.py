"""The query service runtime: cached, budgeted, batched evaluation.

One request = one (query plan, database) pair plus budgets.  The runtime

1. resolves both against the :class:`~repro.service.catalog.Catalog`
   and binds them (:meth:`~repro.service.catalog.Catalog.bind`): one
   :class:`~repro.service.catalog.Binding` per plan and database version
   holds the schema-contract check, the read-set, the cache key's
   version component, the fuel and the static bound, computed once and
   shared with the HTTP edge's admission pricing (inline terms/specs and
   inline databases are accepted for one-shot use and bound per request
   — inline databases are cached by content digest);
2. consults the :class:`~repro.service.cache.ResultCache` under a
   *single-flight* lock, so N concurrent identical requests cost one
   evaluation and N-1 waits;
3. on a miss, evaluates through the engine's row of the engine table
   (:mod:`repro.service.engines`) under the request's fuel/depth
   budgets, the way the binding decided: a term plan, or a fixpoint
   plan's tower, as a whole term by the row's ``term``; a fixpoint spec
   stage by stage, on the one Theorem 5.2 stage loop
   (:func:`~repro.compile.fixpoint.run_fixpoint_query_compiled`) with
   the row's ``stage`` (``ra`` and ``fixpoint`` alike), in process or
   fanned out over shards;
4. degrades gracefully: an exhausted budget is a ``fuel_exhausted``
   *response*, not an exception out of the batch.

Batches fan out on a ``ThreadPoolExecutor``.  Evaluation is pure Python,
so threads mostly interleave rather than truly parallelize — the serving
win comes from sharing the catalog's registration-time work, the
memoized encodings and the result cache across requests, which is
exactly what the acceptance benchmark measures.  Per-request wall-clock
timeouts are enforced at the waiting side (the worker finishes its
bounded budget in the background; a completed result still lands in the
cache for later requests).

**Observability.**  Every request is traced through the lifecycle spans
``query`` → ``resolve`` / ``cache.wait`` / ``cache.lookup`` / ``fuel`` /
``evaluate`` / ``decode`` (see :mod:`repro.obs.tracing`; tracing is off
unless the service is built with an enabled tracer), counted into the
service's :class:`~repro.obs.metrics.MetricsRegistry` (the
``repro_*`` core family), and profiled: the evaluation's beta/delta/let/
quote step breakdown lands on :attr:`QueryResponse.profile` together with
the certifier's static cost bound and the observed/bound ratio, which is
also exported as the ``repro_steps_bound_ratio`` gauge.  Requests slower
than ``slow_query_ms`` emit a structured warning on the
``repro.service.slow`` logger, carrying the ``trace_id`` and cache-key
digest so the logged request can be looked up in the flight recorder.

**Flight recorder & EXPLAIN.**  A service built (or retrofitted via
:meth:`QueryService.enable_flight`) with a
:class:`~repro.obs.flight.FlightRecorder` assembles one *explain
report* per request — the static side (order certificate, cost
polynomial before/after absint tightening, read-set, distribution
class) joined with the observed side (engine, cache path, per-shard
fuel split vs. steps, reduction profile, bound ratio) plus the
request's span tree — and offers it to the recorder, which retains
errors, bound-ratio breaches, the slowest N, and anything that asked
``explain=True``.  Requests propagate a caller-supplied ``trace_id``
(e.g. from an HTTP ``traceparent`` header) into the root span, and
admitted reports stamp trace-id exemplars onto the latency histogram.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from concurrent.futures import (
    CancelledError,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.cost import DatabaseStats
from repro.compile import CompileDecision, run_fixpoint_query_compiled
from repro.db.decode import DecodedRelation, decode_relation
from repro.db.relations import Database, Relation
from repro.errors import FuelExhausted, ReproError, SchemaError
from repro.lam.terms import Term, digest
from repro.lru import BoundedLRU
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    install_compile_metrics,
    install_core_metrics,
    install_shard_metrics,
    quantile,
)
from repro.obs.profiler import ProfileCollector, bound_ratio
from repro.obs.tracing import Tracer, get_tracer
from repro.queries.fixpoint import FixpointQuery
from repro.service.cache import CachedResult, CacheKey, ResultCache
from repro.shard.policy import FALLBACK_ERROR, ShardPolicy
from repro.service.catalog import (
    Binding,
    Catalog,
    DatabaseEntry,
    QueryEntry,
    database_digest,
)
from repro.service.engines import (
    DEFAULT_MAX_DEPTH,
    ENGINE_TABLE,
    FIXPOINT_ENGINE,
    EngineResult,
    evaluate_term_query,
    relation_term,
    validate_engine,
)

DEFAULT_FUEL = 10_000_000

#: Size of the shared deadline-watch thread pool (`execute` with
#: ``timeout_s``).  Workers abandoned by a timeout occupy a slot only
#: until their bounded fuel/depth budget completes, so a modest fixed
#: size suffices; requests queued behind a full pool still observe their
#: own deadline at the waiting side.
TIMEOUT_POOL_WORKERS = 16

#: Capacity of the per-service distribution-plan LRU (keyed by query
#: digest x schema names x whether the plan runs stage by stage).
#: Classification is cheap to redo, so a small bound beats an unbounded
#: dict on long-lived services with churning inline queries or schemas.
PLAN_CACHE_CAPACITY = 128

#: Statuses a response can carry.
STATUS_OK = "ok"
STATUS_FUEL = "fuel_exhausted"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"

logger = logging.getLogger("repro.service")
slow_logger = logging.getLogger("repro.service.slow")


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work for the service.

    ``query`` and ``database`` are catalog names, or inline values
    (a :class:`Term` / :class:`FixpointQuery`, a :class:`Database`) for
    one-shot use.  ``engine`` overrides the plan's engine; ``fuel`` and
    ``max_depth`` budget the small-step and NBE evaluators respectively;
    ``timeout_s`` bounds how long the caller waits in a batch.

    ``fuel=None`` (the default) derives the budget from the plan's static
    cost certificate against the database's size statistics (Theorem 5.1:
    honest plans finish inside the bound, so exhausting it means a
    runaway); plans without a certificate fall back to
    :data:`DEFAULT_FUEL`.

    ``shards`` (or a full ``shard_policy``) asks for partition-parallel
    evaluation on the service's worker pool: the plan is classified by
    :mod:`repro.shard.planner` and, when distributable, evaluated
    shard-by-shard with a canonical merge.  Non-distributable plans fall
    back to the ordinary in-process path (or error, per the policy's
    ``fallback``).

    ``trace_id`` seeds the request's trace (e.g. the id carried in an
    HTTP ``traceparent`` header); left ``None``, the tracer mints one
    when tracing is enabled.  ``explain=True`` asks for the full
    EXPLAIN-ANALYZE report on :attr:`QueryResponse.explain` (and pins
    the request into the flight recorder when one is installed).
    """

    query: Union[str, Term, FixpointQuery]
    database: Union[str, Database]
    engine: Optional[str] = None
    arity: Optional[int] = None
    fuel: Optional[int] = None
    max_depth: int = DEFAULT_MAX_DEPTH
    timeout_s: Optional[float] = None
    tag: Optional[str] = None
    shards: Optional[int] = None
    shard_policy: Optional[ShardPolicy] = None
    trace_id: Optional[str] = None
    explain: bool = False


@dataclass
class QueryResponse:
    """The outcome of one request, with its serving stats.

    ``profile`` is the reduction profile of the evaluation that produced
    the result (cache hits replay the computing request's profile): the
    beta/delta/let/quote step breakdown, the readback depth watermark,
    the certifier's ``static_bound``, and the observed/bound ratio.

    ``reduced_form`` is the normal form a reduction engine reached;
    set-engine results (``"ra"``, sharded merges) carry none, and
    :attr:`normal_form` rebuilds their term only when it is read.
    """

    status: str
    query: str
    database: str
    database_version: int
    engine: str
    relation: Optional[Relation] = None
    reduced_form: Optional[Term] = None
    steps: Optional[int] = None
    stages: Optional[int] = None
    fuel_budget: Optional[int] = None
    cache_hit: bool = False
    wall_ms: float = 0.0
    compute_wall_ms: Optional[float] = None
    error: Optional[str] = None
    tag: Optional[str] = None
    profile: Optional[dict] = None
    trace_id: Optional[str] = None
    cache_key: Optional[str] = None
    explain: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def normal_form(self) -> Optional[Term]:
        """The answer as a term (Definition 3.10): the reduced normal form,
        or the Definition 3.1 encoding of :attr:`relation`, built on first
        read and memoized on the relation."""
        if self.reduced_form is not None or self.relation is None:
            return self.reduced_form
        return relation_term(self.relation)

    def as_dict(self, *, include_tuples: bool = True) -> dict:
        out = {
            "status": self.status,
            "query": self.query,
            "database": self.database,
            "database_version": self.database_version,
            "engine": self.engine,
            "cache_hit": self.cache_hit,
            "wall_ms": round(self.wall_ms, 3),
            "compute_wall_ms": (
                round(self.compute_wall_ms, 3)
                if self.compute_wall_ms is not None
                else None
            ),
            "steps": self.steps,
            "stages": self.stages,
            "fuel_budget": self.fuel_budget,
            "profile": self.profile,
            "error": self.error,
            "tag": self.tag,
            "trace_id": self.trace_id,
            "cache_key": self.cache_key,
        }
        if self.explain is not None:
            out["explain"] = self.explain
        if include_tuples and self.relation is not None:
            out["arity"] = self.relation.arity
            out["tuples"] = [list(row) for row in self.relation.tuples]
        return out


@dataclass
class BatchResult:
    """All responses of a batch (input order) plus aggregate stats."""

    responses: List[QueryResponse]
    wall_ms: float

    @property
    def stats(self) -> dict:
        by_status: Dict[str, int] = {}
        for r in self.responses:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        hits = sum(1 for r in self.responses if r.cache_hit)
        latencies = sorted(r.wall_ms for r in self.responses)
        total = len(self.responses)
        # The hit rate is over responses that actually performed a cache
        # lookup: errors and timeouts never reached the cache, so they
        # dilute neither side of the ratio.
        looked = sum(
            1 for r in self.responses if r.status in (STATUS_OK, STATUS_FUEL)
        )
        return {
            "requests": total,
            "statuses": by_status,
            "cache_hits": hits,
            "cache_misses": looked - hits,
            "hit_rate": round(hits / looked, 4) if looked else 0.0,
            "wall_ms": round(self.wall_ms, 3),
            "throughput_qps": (
                round(total / (self.wall_ms / 1000.0), 2)
                if self.wall_ms > 0
                else 0.0
            ),
            "latency_p50_ms": round(quantile(latencies, 0.50), 3),
            "latency_p95_ms": round(quantile(latencies, 0.95), 3),
            "total_steps": sum(r.steps or 0 for r in self.responses),
        }


class QueryService:
    """Catalog + cache + batch executor, safe for concurrent use.

    ``registry`` defaults to a fresh per-service
    :class:`~repro.obs.metrics.MetricsRegistry` (pass a shared one to
    aggregate across services); ``tracer`` defaults to the process
    default, which is disabled until configured; ``slow_query_ms`` turns
    on structured slow-query logging via the ``repro.service.slow``
    logger; ``flight`` installs a
    :class:`~repro.obs.flight.FlightRecorder` (see
    :meth:`enable_flight`).
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        *,
        cache_capacity: int = 256,
        max_workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_query_ms: Optional[float] = None,
        shard_workers: Optional[int] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.cache = ResultCache(capacity=cache_capacity)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.slow_query_ms = slow_query_ms
        self.flight: Optional[FlightRecorder] = None
        if flight is not None:
            self.enable_flight(flight)
        self._metrics = install_core_metrics(self.registry)
        self._shard_metrics = install_shard_metrics(self.registry)
        self._compile_metrics = install_compile_metrics(self.registry)
        # Registration-time compile decisions land on the service's
        # registry (the catalog itself is metrics-free).
        self.catalog.compile_observer = self._record_compile_decision
        self._max_workers = max_workers
        self._inflight: Dict[CacheKey, Tuple[threading.Lock, int]] = {}
        self._inflight_guard = threading.Lock()
        # close() latch: set exactly once, checked by the lazy executor
        # factories so a request racing a close() can never resurrect a
        # pool the close already tore down (that pool would leak).
        self._closed = False
        self._close_lock = threading.Lock()
        # Long-lived executors, created lazily and released by close():
        # the deadline-watch thread pool (one per service, not one per
        # timed request) and the shard worker pool.
        self._timeout_pool: Optional[ThreadPoolExecutor] = None
        self._timeout_pool_lock = threading.Lock()
        self._shard_workers = shard_workers
        self._shard_pool = None
        self._shard_pool_lock = threading.Lock()
        self._plan_cache: BoundedLRU[
            Tuple[str, Tuple[str, ...], bool], object
        ] = BoundedLRU(PLAN_CACHE_CAPACITY)

    def enable_flight(
        self, flight: Optional[FlightRecorder] = None
    ) -> FlightRecorder:
        """Install a flight recorder (a default-configured one when
        ``flight`` is ``None``) and make sure spans reach it.

        The recorder needs the span stream to attach span trees to its
        reports, so a service whose tracer is disabled gets a fresh
        enabled tracer exporting to the recorder only; an already-enabled
        tracer gains the recorder as an additional exporter.
        """
        recorder = flight if flight is not None else FlightRecorder()
        self.flight = recorder
        if self.tracer.enabled:
            self.tracer.add_exporter(recorder)
        else:
            self.tracer = Tracer(exporters=[recorder], enabled=True)
        return recorder

    # -- public API ----------------------------------------------------------

    def execute(self, request: QueryRequest) -> QueryResponse:
        """Serve one request synchronously.

        With ``timeout_s`` set the evaluation runs on a worker thread and a
        ``timeout`` response is returned if it misses the deadline (the
        worker still completes its bounded budget and populates the cache).
        """
        if request.timeout_s is None:
            return self._serve(request)
        start = time.perf_counter()
        closed = "service closed before the request could run ({})"
        try:
            future = self._timeout_executor().submit(self._serve, request)
        except (ReproError, RuntimeError) as exc:
            # The service closed between the caller's check and the
            # submit (RuntimeError: "cannot schedule new futures after
            # shutdown").  A closed service answers, it does not raise.
            return self._observe(self._unanswered(
                request, STATUS_ERROR, closed.format(exc),
                (time.perf_counter() - start) * 1000.0,
            ))
        try:
            return future.result(timeout=request.timeout_s)
        except FutureTimeout:
            # Never wait for an abandoned worker: its fuel/depth budget
            # bounds it, and a late success still lands in the cache.
            # Cancelling drops evaluations the shared pool has not started
            # yet, so sustained timeouts cannot queue useless work.
            future.cancel()
            return self._observe(self._unanswered(
                request, STATUS_TIMEOUT,
                f"request missed its {request.timeout_s}s deadline",
                request.timeout_s * 1000.0,
            ))
        except CancelledError as exc:
            # close() cancelled the queued future before a worker picked
            # it up.
            return self._observe(self._unanswered(
                request, STATUS_ERROR, closed.format(exc),
                (time.perf_counter() - start) * 1000.0,
            ))

    def _timeout_executor(self) -> ThreadPoolExecutor:
        """The shared deadline-watch pool (created on first timed request,
        released by :meth:`close`; never recreated after close)."""
        with self._timeout_pool_lock:
            if self._closed:
                raise ReproError("service is closed")
            if self._timeout_pool is None:
                self._timeout_pool = ThreadPoolExecutor(
                    max_workers=TIMEOUT_POOL_WORKERS,
                    thread_name_prefix="repro-timeout",
                )
            return self._timeout_pool

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the service's long-lived executors.

        Idempotent and safe to call while requests are in flight: the
        first call wins (later calls return immediately), the closed
        latch is set *before* the teardown so a racing request cannot
        lazily recreate a pool after it was released, and in-flight
        requests finish with a response — evaluations already running
        complete normally; queued timed requests and post-close shard
        requests come back as ``error`` responses rather than exceptions.
        Abandoned timed-out evaluations are not waited for — same
        semantics as serving time: their budgets bound them.
        """
        with self._close_lock:
            if self._closed:
                return
            # Latch first: from here on no lazy factory hands out a pool.
            self._closed = True
        with self._timeout_pool_lock:
            pool, self._timeout_pool = self._timeout_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        with self._shard_pool_lock:
            shard_pool, self._shard_pool = self._shard_pool, None
        if shard_pool is not None:
            shard_pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def execute_batch(
        self,
        requests: Sequence[QueryRequest],
        *,
        max_workers: Optional[int] = None,
    ) -> BatchResult:
        """Serve many requests concurrently; responses come back in input
        order, one per request, never an exception."""
        workers = max_workers or self._max_workers or min(
            8, max(1, len(requests))
        )
        start = time.perf_counter()
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(self._serve, r) for r in requests]
            responses: List[QueryResponse] = []
            for request, future in zip(requests, futures):
                if request.timeout_s is None:
                    responses.append(future.result())
                    continue
                deadline = start + request.timeout_s
                remaining = max(0.0, deadline - time.perf_counter())
                try:
                    responses.append(future.result(timeout=remaining))
                except FutureTimeout:
                    responses.append(self._observe(self._unanswered(
                        request, STATUS_TIMEOUT,
                        f"request missed its {request.timeout_s}s deadline",
                        (time.perf_counter() - start) * 1000.0,
                    )))
        finally:
            # Abandoned workers (timeouts) keep running to their bounded
            # budget in the background; the batch does not wait for them.
            pool.shutdown(wait=False)
        wall_ms = (time.perf_counter() - start) * 1000.0
        return BatchResult(responses=responses, wall_ms=wall_ms)

    def stats(self) -> dict:
        """Aggregate serving stats, read back from the metrics registry
        (the registry is the source of truth; this is a convenience
        projection keeping the pre-registry dict shape)."""
        statuses = {
            labels["status"]: int(value)
            for labels, value in self._metrics["requests"].items()
        }
        latency = self._metrics["latency"]
        return {
            "requests": sum(statuses.values()),
            "statuses": statuses,
            "cache": self.cache.stats().as_dict(),
            "latency_p50_ms": round(latency.quantile(0.50), 3),
            "latency_p95_ms": round(latency.quantile(0.95), 3),
            "slow_queries": int(self._metrics["slow_queries"].value()),
        }

    # -- request resolution --------------------------------------------------

    def _resolve_query(self, request: QueryRequest) -> QueryEntry:
        """The registered plan, or a transient uncertified entry for an
        inline term or fixpoint spec."""
        query = request.query
        if isinstance(query, str):
            return self.catalog.get_query(query)
        if isinstance(query, FixpointQuery):
            spec_digest = hashlib.sha256(repr(query).encode()).hexdigest()
            return QueryEntry(
                name="<inline fixpoint>",
                kind="fixpoint",
                term=None,
                engine=FIXPOINT_ENGINE,
                digest="fx:" + spec_digest,
                fixpoint=query,
            )
        if isinstance(query, Term):
            return QueryEntry(
                name="<inline term>",
                kind="term",
                term=query,
                engine="nbe",
                digest=digest(query),
            )
        raise ReproError(
            f"request query must be a name, Term, or FixpointQuery, "
            f"got {type(query).__name__}"
        )

    def _resolve_database(self, request: QueryRequest) -> DatabaseEntry:
        database = request.database
        if isinstance(database, str):
            return self.catalog.get_database(database)
        if isinstance(database, Database):
            # Inline databases are keyed by content: identical contents hit
            # the same cache entries without being registered.
            content = database_digest(database)
            return DatabaseEntry(
                name="@inline:" + content[:16],
                database=database,
                version=0,
                digest=content,
                stats=DatabaseStats.of(database),
            )
        raise ReproError(
            f"request database must be a name or Database, "
            f"got {type(database).__name__}"
        )

    # -- serving -------------------------------------------------------------

    def _serve(self, request: QueryRequest) -> QueryResponse:
        start = time.perf_counter()
        extras: Dict[str, object] = {}
        with self.tracer.span(
            "query",
            trace_id=request.trace_id,
            query=self._query_label(request),
            database=self._database_label(request),
            tag=request.tag,
        ) as span:
            try:
                response = self._serve_inner(request, start, extras)
            except (ReproError, RecursionError) as exc:
                response = self._unanswered(
                    request, STATUS_ERROR, str(exc),
                    (time.perf_counter() - start) * 1000.0,
                )
            span.set_attr("engine", response.engine)
            span.set_attr("cache_hit", response.cache_hit)
            span.set_attr("status", response.status)
            if response.status != STATUS_OK:
                span.set_status(response.status)
        # NOOP_SPAN (tracing disabled) has no trace_id attribute; the
        # caller-supplied id still propagates onto the response.
        response.trace_id = getattr(span, "trace_id", request.trace_id)
        response.cache_key = extras.get("cache_key")  # type: ignore[assignment]
        recorded = False
        if self.flight is not None or request.explain:
            report = self._explain_report(request, response, extras)
            if self.flight is not None:
                # Past the root span's close, so the recorder's pending
                # map already holds the whole span tree for this trace.
                recorded = self.flight.record(report)
                if recorded and response.trace_id:
                    stored = self.flight.lookup(response.trace_id)
                    if stored is not None:
                        # The retained copy carries the span tree and
                        # admission reasons; surface that richer report.
                        report = stored
            if request.explain:
                response.explain = report
        return self._observe(response, exemplar_recorded=recorded)

    def _serve_inner(
        self,
        request: QueryRequest,
        start: float,
        extras: Dict[str, object],
    ) -> QueryResponse:
        tracer = self.tracer
        if request.engine is not None:
            validate_engine(request.engine)
        with tracer.span("resolve") as span:
            query = self._resolve_query(request)
            db_entry = self._resolve_database(request)
            binding = self.catalog.bind(
                query, db_entry, request.engine or query.engine
            )
            span.set_attr("query", query.name)
            span.set_attr("database", db_entry.name)
        extras["binding"] = binding
        if binding.contract_error is not None:
            # TLI024: the database cannot satisfy the plan's read
            # contract, so the pair is rejected before any evaluation.
            raise SchemaError(binding.contract_error)
        policy, shard_plan = self._shard_dispatch(request, binding)
        # Sharded term plans come back in canonical (merged) order, so
        # sharded results must not share cache entries with in-process
        # results: the shard spec is folded into the cache key's engine
        # component.
        engine_key = (
            f"{binding.engine}#s{policy.shards}:{policy.partitioner}"
            if policy is not None
            else binding.engine
        )
        key: CacheKey = (
            query.digest, db_entry.name, binding.version_key, engine_key,
        )
        extras["cache_key"] = hashlib.sha256(
            repr(key).encode()
        ).hexdigest()[:16]
        extras["policy"] = policy
        extras["plan"] = shard_plan
        arity = (
            request.arity
            if request.arity is not None
            else query.output_arity
        )

        lock = self._acquire_key(key)
        try:
            # Single flight: if an identical evaluation is in flight, the
            # blocked acquire is the wait — trace and count it, so shared
            # work is visible rather than disguised as a fast hit.
            if not lock.acquire(blocking=False):
                with tracer.span("cache.wait"):
                    lock.acquire()
                self.cache.count_inflight_wait()
                self._metrics["inflight_waits"].inc()
            try:
                with tracer.span("cache.lookup") as span:
                    cached = self.cache.get(key)
                    span.set_attr("hit", cached is not None)
                if cached is not None:
                    self._metrics["cache_hits"].inc()
                    if (
                        cached.database_version is not None
                        and db_entry.version > cached.database_version
                    ):
                        # The global version moved on but the read-set's
                        # sub-vector key survived: legacy whole-version
                        # invalidation would have recomputed this.
                        self.cache.count_provenance_save()
                        self._metrics["provenance_saves"].inc()
                    return self._answer(
                        request, binding, cached, arity, start, hit=True
                    )
                self._metrics["cache_misses"].inc()
                # An explicit request budget wins; otherwise the plan's
                # certificate at the database's statistics; otherwise the
                # flat default.
                fuel = request.fuel
                if fuel is None:
                    fuel = (
                        binding.fuel
                        if binding.fuel is not None
                        else DEFAULT_FUEL
                    )
                collector = ProfileCollector()
                try:
                    computed = self._evaluate(
                        request, binding, arity, fuel, collector,
                        policy=policy, shard_plan=shard_plan,
                    )
                except FuelExhausted as exc:
                    return QueryResponse(
                        status=STATUS_FUEL,
                        query=query.name,
                        database=db_entry.name,
                        database_version=db_entry.version,
                        engine=binding.engine,
                        steps=exc.steps,
                        fuel_budget=fuel,
                        error=str(exc),
                        wall_ms=(time.perf_counter() - start) * 1000.0,
                        tag=request.tag,
                        profile=self._finish_profile(
                            collector, binding, exc.steps
                        ),
                    )
                self.cache.put(key, computed)
            finally:
                lock.release()
        finally:
            self._release_key(key)

        return self._answer(
            request, binding, computed, arity, start, hit=False
        )

    def _evaluate(
        self,
        request: QueryRequest,
        binding: Binding,
        arity: Optional[int],
        fuel: int,
        collector: ProfileCollector,
        *,
        policy: Optional[ShardPolicy] = None,
        shard_plan=None,
    ) -> CachedResult:
        tracer = self.tracer
        compute_start = time.perf_counter()
        if policy is not None and shard_plan is not None:
            return self._evaluate_sharded(
                request, binding, arity, policy, shard_plan
            )
        query, engine = binding.query, binding.engine
        database = binding.database.database
        row = ENGINE_TABLE[engine]
        if binding.staged:
            # Every staged engine runs the one stage loop with its row's
            # stage, in process as on shards.
            assert row.stage is not None, engine
            with tracer.span("evaluate", engine=engine) as span:
                try:
                    run = run_fixpoint_query_compiled(
                        query.fixpoint,
                        database,
                        stage=row.stage,
                        max_depth=request.max_depth,
                        observer=collector,
                    )
                finally:
                    self._annotate_evaluation(span, collector)
                span.set_attr("stages", run.stages)
            result = EngineResult(
                engine=engine, steps=run.nbe_steps, decoded=run.decoded
            )
            decoded = run.decoded
            stages: Optional[int] = run.stages
            budget: Optional[int] = None
        else:
            with tracer.span("fuel") as span:
                span.set_attr("budget", fuel)
                span.set_attr(
                    "derived",
                    request.fuel is None and binding.fuel is not None,
                )
            with tracer.span("evaluate", engine=engine) as span:
                try:
                    # "ra" degrades to NBE inside the engine call when the
                    # plan cannot compile (same relation, reduction
                    # semantics); the degradation is counted, not raised.
                    result = evaluate_term_query(
                        query.plan_term,
                        database,
                        engine=engine,
                        fuel=fuel,
                        max_depth=request.max_depth,
                        observer=collector,
                        output_arity=arity,
                    )
                finally:
                    self._annotate_evaluation(span, collector)
                if result.fallback is not None:
                    span.set_attr("compile_fallback", result.fallback)
            with tracer.span("decode"):
                decoded = _decoded(result, arity)
            stages, budget = None, fuel
        if result.fallback is not None:
            self._compile_metrics["compile_runtime_fallbacks"].inc()
            self._compile_metrics["compile_requests"].inc(path="fallback")
        elif row.compiled:
            self._compile_metrics["compile_requests"].inc(path="compiled")
        compute_ms = (time.perf_counter() - compute_start) * 1000.0
        return CachedResult(
            relation=decoded.relation,
            decoded=decoded,
            normal_form=result.reduced_form,
            engine=result.engine,
            steps=result.steps,
            stages=stages,
            compute_wall_ms=compute_ms,
            fuel_budget=budget,
            profile=self._finish_profile(collector, binding, result.steps),
            database_version=binding.database.version,
        )

    # -- sharded evaluation --------------------------------------------------

    def _shard_dispatch(self, request: QueryRequest, binding: Binding):
        """Resolve the request's shard policy against the plan's
        distribution classification.

        Returns ``(policy, plan)`` when the request wants sharding and the
        plan supports it, ``(None, None)`` otherwise (falling back to the
        in-process path, or raising when the policy says ``error``).
        """
        policy = request.shard_policy
        if policy is None and request.shards is not None:
            policy = ShardPolicy(shards=request.shards)
        if policy is None:
            return None, None
        plan = self._distribution_plan(binding)
        if binding.scanned is not None:
            from repro.shard.planner import refine_distribution

            plan, _dropped = refine_distribution(plan, set(binding.scanned))
        usable = False
        database = binding.database.database
        if plan.distributable:
            try:
                chosen = plan.choose_partition(database)
                usable = set(chosen) <= set(database.names)
            except ReproError:
                usable = False
        if not usable:
            self._shard_metrics["shard_requests"].inc(mode="local-only")
            if policy.fallback == FALLBACK_ERROR:
                raise ReproError(
                    f"[{plan.code}] query {binding.query.name!r} is not "
                    f"shard-distributable: {plan.reason}"
                )
            with self.tracer.span(
                "shard.fallback", code=plan.code, reason=plan.reason
            ):
                pass
            return None, None
        self._shard_metrics["shard_requests"].inc(mode=plan.mode)
        return policy, plan

    def _distribution_plan(self, binding: Binding):
        """The (memoized) distribution classification of one plan against
        one database schema (kept per schema, not per binding: updates
        replace the database entry but rarely its schema) and one way of
        running it: a spec run stage by stage is classified by its step,
        a fixpoint plan whose tower runs whole is local-only (TLI018),
        and a term plan is classified by its term."""
        from repro.shard.planner import (
            DistributionPlan,
            MODE_LOCAL,
            CODE_LOCAL_ONLY,
            plan_distribution,
        )

        query = binding.query
        names = tuple(binding.database.database.names)
        key = (query.digest, names, binding.staged)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan
        reason = None
        if binding.staged or query.fixpoint is None:
            try:
                plan = plan_distribution(
                    query.fixpoint if binding.staged else query.plan_term,
                    signature=query.signature,
                    input_names=names,
                )
            except ReproError as exc:
                reason = f"distribution analysis failed: {exc}"
        else:
            # Classifying the tower instead would NBE-normalize it, which
            # does not finish on towers such as tc's.
            reason = (
                "a fixpoint plan shards only stage by stage; this engine "
                "reduces its tower whole, in process"
            )
        if reason is not None:
            plan = DistributionPlan(
                mode=MODE_LOCAL,
                kind=query.kind,
                partition_names=(),
                broadcast_names=names,
                code=CODE_LOCAL_ONLY,
                reason=reason,
            )
        self._plan_cache.put(key, plan)
        return plan

    def _shard_pool_for(self, policy: ShardPolicy):
        """The lazily-created shared worker pool, grown to the policy's
        shard count (capped at the service's ``shard_workers``)."""
        from repro.shard.pool import ShardWorkerPool

        wanted = policy.shards
        if self._shard_workers is not None:
            wanted = min(wanted, self._shard_workers)
        with self._shard_pool_lock:
            if self._closed:
                raise ReproError("service is closed")
            if self._shard_pool is None:
                self._shard_pool = ShardWorkerPool(
                    wanted, observer=self._shard_event
                )
            elif self._shard_pool.size < wanted:
                self._shard_pool.ensure_workers(wanted)
            self._shard_metrics["shard_workers"].set(self._shard_pool.size)
            return self._shard_pool

    def _record_compile_decision(self, decision: CompileDecision) -> None:
        """Catalog hook: fold registration-time compile decisions into
        the ``repro_compile_plans_total`` counter."""
        self._compile_metrics["compile_plans"].inc(
            status=decision.status, kind=decision.kind
        )

    def _shard_event(self, event: str) -> None:
        """Pool observer: fold worker-pool events into the registry."""
        metric = {
            "task": "shard_tasks",
            "retry": "shard_retries",
            "crash": "shard_crashes",
            "timeout": "shard_crashes",
            "degraded": "shard_degraded",
        }.get(event)
        if metric is not None:
            self._shard_metrics[metric].inc()

    def _evaluate_sharded(
        self,
        request: QueryRequest,
        binding: Binding,
        arity: Optional[int],
        policy: ShardPolicy,
        shard_plan,
    ) -> CachedResult:
        from repro.shard.executor import (
            execute_sharded_fixpoint,
            execute_sharded_term,
        )

        compute_start = time.perf_counter()
        pool = self._shard_pool_for(policy)
        query, db_entry = binding.query, binding.database
        if binding.staged:
            outcome = execute_sharded_fixpoint(
                pool=pool,
                tracer=self.tracer,
                policy=policy,
                plan=shard_plan,
                fixpoint=query.fixpoint,
                engine=binding.engine,
                database=db_entry.database,
                db_digest=db_entry.digest,
                cost=query.effective_cost,
                max_depth=request.max_depth,
            )
        else:
            outcome = execute_sharded_term(
                pool=pool,
                tracer=self.tracer,
                policy=policy,
                plan=shard_plan,
                term=query.plan_term,
                engine=binding.engine,
                database=db_entry.database,
                db_digest=db_entry.digest,
                arity=arity,
                cost=query.effective_cost,
                fuel_override=request.fuel,
                default_fuel=DEFAULT_FUEL,
                max_depth=request.max_depth,
                provenance=query.provenance,
            )
        with self.tracer.span("decode"):
            decoded = DecodedRelation.of(outcome.relation)
        fuels = [
            row["fuel"]
            for row in outcome.shard_rows
            if row.get("fuel") is not None
        ]
        ratios = [
            row["bound_ratio"]
            for row in outcome.shard_rows
            if row.get("bound_ratio") is not None
        ]
        compute_ms = (time.perf_counter() - compute_start) * 1000.0
        # The profile carries the full-database static bound plus the
        # per-shard rows.  Its headline ratio (and the gauge) is the
        # *worst per-shard* observed/bound ratio: each shard evaluation is
        # a Theorem 5.1 run over its own shard database, so that is the
        # ratio the theorem bounds by 1 (summing shard steps against the
        # full-database bound would double-count broadcast work).
        profile = {
            "steps": outcome.steps,
            **self._bound_fields(binding, max(ratios) if ratios else None),
            "shard": outcome.profile_dict(policy, shard_plan),
        }
        return CachedResult(
            relation=decoded.relation,
            decoded=decoded,
            normal_form=None,
            engine=binding.engine,
            steps=outcome.steps,
            stages=outcome.stages,
            compute_wall_ms=compute_ms,
            fuel_budget=max(fuels) if fuels else None,
            profile=profile,
            database_version=db_entry.version,
        )

    # -- EXPLAIN ANALYZE -----------------------------------------------------

    def _explain_report(
        self,
        request: QueryRequest,
        response: QueryResponse,
        extras: Dict[str, object],
    ) -> dict:
        """One EXPLAIN-ANALYZE report: the static certificate side joined
        with the observed execution side.  Built for every request when a
        flight recorder is installed (the recorder decides retention) and
        returned on the response when ``explain=True`` was asked."""
        report: Dict[str, object] = {
            "trace_id": response.trace_id,
            "query": response.query,
            "database": response.database,
            "status": response.status,
            "explain_requested": bool(request.explain),
            "cache_key": response.cache_key,
            "wall_ms": round(response.wall_ms, 3),
            "tag": response.tag,
            "static": self._explain_static(extras),
            "observed": self._explain_observed(response),
        }
        if response.error:
            report["error"] = response.error
        return report

    @staticmethod
    def _explain_static(extras: Dict[str, object]) -> dict:
        """The certificate side: what the analyzers promised before the
        request ran (order, cost polynomial before/after tightening,
        read-set, distribution class).  The binding holds the part fixed
        by the plan and database version; the distribution plan and shard
        policy vary with the request's ``shards`` ask."""
        binding = extras.get("binding")
        if not isinstance(binding, Binding):
            return {}
        static = dict(binding.explain_static)
        plan = extras.get("plan")
        if plan is not None:
            static["distribution"] = {
                "mode": getattr(plan, "mode", None),
                "code": getattr(plan, "code", None),
                "reason": getattr(plan, "reason", None),
            }
        policy = extras.get("policy")
        if isinstance(policy, ShardPolicy):
            static["shard_policy"] = {
                "shards": policy.shards,
                "partitioner": policy.partitioner,
            }
        return static

    @staticmethod
    def _explain_observed(response: QueryResponse) -> dict:
        """The execution side: what actually happened (engine, cache
        path, fuel vs. steps, reduction profile, per-shard rows)."""
        profile = response.profile or {}
        observed: Dict[str, object] = {
            "engine": response.engine,
            "cache_hit": response.cache_hit,
            "steps": response.steps,
            "stages": response.stages,
            "fuel_budget": response.fuel_budget,
            "wall_ms": round(response.wall_ms, 3),
            "compute_wall_ms": (
                round(response.compute_wall_ms, 3)
                if response.compute_wall_ms is not None
                else None
            ),
            "bound_ratio": profile.get("bound_ratio"),
            "tightening_ratio": profile.get("tightening_ratio"),
            "profile": profile or None,
        }
        shard = profile.get("shard")
        if isinstance(shard, dict):
            # Per-shard fuel split vs. observed steps, straight from the
            # coordinator's shard rows.
            observed["shards"] = [
                {
                    "shard": row.get("shard"),
                    "fuel": row.get("fuel"),
                    "steps": row.get("steps"),
                    "bound": row.get("bound"),
                    "bound_ratio": row.get("bound_ratio"),
                    "worker": row.get("worker"),
                    "retries": row.get("retries"),
                    "degraded": row.get("degraded"),
                }
                for row in shard.get("rows", [])
            ]
        return observed

    @staticmethod
    def _annotate_evaluation(span, collector: ProfileCollector) -> None:
        """Copy the collected step breakdown onto the evaluation span
        (runs in a ``finally``, so exhausted evaluations are annotated
        with their partial counts too)."""
        profile = collector.profile
        span.set_attr("steps", profile.steps)
        span.set_attr("beta", profile.beta)
        span.set_attr("delta", profile.delta)
        span.set_attr("let", profile.let)
        span.set_attr("quote", profile.quote)
        span.set_attr("max_depth", profile.max_depth)

    def _finish_profile(
        self,
        collector: ProfileCollector,
        binding: Binding,
        steps: Optional[int],
    ) -> dict:
        """The response-facing profile: the collected breakdown plus the
        certificate fields of :meth:`_bound_fields`."""
        profile = collector.profile.as_dict()
        profile.update(self._bound_fields(
            binding, bound_ratio(steps, binding.static_bound)
        ))
        return profile

    def _bound_fields(
        self, binding: Binding, ratio: Optional[float]
    ) -> dict:
        """The profile's static bound, observed/bound ratio and tightening
        ratio, mirrored to the ``repro_steps_bound_ratio`` and
        ``repro_cost_tightening_ratio`` gauges."""
        name = binding.query.name
        tightening = binding.tightening
        if tightening is not None:
            self._metrics["tightening"].set(tightening, query=name)
            tightening = round(tightening, 6)
        if ratio is not None:
            self._metrics["bound_ratio"].set(ratio, query=name)
            ratio = round(ratio, 6)
        return {
            "static_bound": binding.static_bound,
            "bound_ratio": ratio,
            "tightening_ratio": tightening,
        }

    def _answer(
        self,
        request: QueryRequest,
        binding: Binding,
        result: CachedResult,
        arity: Optional[int],
        start: float,
        *,
        hit: bool,
    ) -> QueryResponse:
        """The ``ok`` response carrying ``result``, computed by this
        request or read from the cache (``hit``)."""
        if arity is not None and result.relation.arity != arity:
            raise ReproError(
                f"query {binding.query.name!r} produced arity "
                f"{result.relation.arity}, request asserts {arity}"
            )
        return QueryResponse(
            status=STATUS_OK,
            query=binding.query.name,
            database=binding.database.name,
            database_version=binding.database.version,
            # What actually ran ("ra" may have degraded to "nbe").
            engine=result.engine,
            relation=result.relation,
            reduced_form=result.normal_form,
            steps=result.steps,
            stages=result.stages,
            fuel_budget=result.fuel_budget,
            cache_hit=hit,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            compute_wall_ms=result.compute_wall_ms,
            tag=request.tag,
            profile=result.profile,
        )

    def _unanswered(
        self, request: QueryRequest, status: str, error: str, wall_ms: float
    ) -> QueryResponse:
        """A response without an answer (an error, a missed deadline, a
        closed service), labelled from the request alone."""
        return QueryResponse(
            status=status,
            query=self._query_label(request),
            database=self._database_label(request),
            database_version=0,
            engine=request.engine or "?",
            error=error,
            wall_ms=wall_ms,
            tag=request.tag,
            trace_id=request.trace_id,
        )

    # -- database updates ----------------------------------------------------

    def update_database(self, name: str, database: Database) -> DatabaseEntry:
        """Replace a registered database and invalidate cached results
        relation-granularly: only entries whose read-set intersects the
        relations that actually changed (plus legacy whole-version and
        wildcard-keyed entries) are dropped — results of plans that never
        scan the touched relations survive with their keys still valid.
        """
        previous = self.catalog.get_database(name).database
        entry = self.catalog.update_database(name, database)
        # The catalog already diffed every relation: the changed and the
        # added ones sit at the new global version.
        touched = {
            rel_name
            for rel_name, version in entry.versions
            if version == entry.version
        }
        touched.update(set(previous.names) - set(database.names))
        self.cache.invalidate_relations(name, touched)
        return entry

    def apply_update(
        self, name: str, updates: "Dict[str, Relation]"
    ) -> DatabaseEntry:
        """Apply a per-relation update (the relation-granular fast path):
        the catalog bumps only the touched relations' versions, and only
        cache entries reading those relations are invalidated."""
        entry, touched = self.catalog.apply(name, updates)
        self.cache.invalidate_relations(name, touched)
        return entry

    # -- plumbing ------------------------------------------------------------

    def _acquire_key(self, key: CacheKey) -> threading.Lock:
        with self._inflight_guard:
            lock, count = self._inflight.get(key, (None, 0))
            if lock is None:
                lock = threading.Lock()
            self._inflight[key] = (lock, count + 1)
            return lock

    def _release_key(self, key: CacheKey) -> None:
        with self._inflight_guard:
            lock, count = self._inflight[key]
            if count <= 1:
                del self._inflight[key]
            else:
                self._inflight[key] = (lock, count - 1)

    def _observe(
        self, response: QueryResponse, *, exemplar_recorded: bool = False
    ) -> QueryResponse:
        """Fold one finished response into the registry (and the slow-query
        log) and hand it back.  Called for every response, including
        synthesized timeout responses — matching the pre-registry counting
        semantics.

        ``exemplar_recorded`` marks responses whose explain report the
        flight recorder retained: their trace id is stamped onto the
        latency histogram bucket as an exemplar, so a p99 bucket links
        to a retrievable flight record.
        """
        metrics = self._metrics
        metrics["requests"].inc(status=response.status)
        metrics["latency"].observe(
            response.wall_ms,
            exemplar=(
                response.trace_id
                if exemplar_recorded and response.trace_id
                else None
            ),
        )
        if response.steps and not response.cache_hit:
            metrics["engine_steps"].inc(
                response.steps, engine=response.engine
            )
        threshold = self.slow_query_ms
        if threshold is not None and response.wall_ms >= threshold:
            metrics["slow_queries"].inc()
            slow_logger.warning(
                "slow query %s@%s: %.1fms >= %.1fms "
                "(status=%s engine=%s cache_hit=%s steps=%s tag=%s "
                "trace_id=%s cache_key=%s)",
                response.query,
                response.database,
                response.wall_ms,
                threshold,
                response.status,
                response.engine,
                response.cache_hit,
                response.steps,
                response.tag,
                response.trace_id,
                response.cache_key,
                extra={
                    "query": response.query,
                    "database": response.database,
                    "wall_ms": round(response.wall_ms, 3),
                    "threshold_ms": threshold,
                    "status": response.status,
                    "engine": response.engine,
                    "cache_hit": response.cache_hit,
                    "steps": response.steps,
                    "tag": response.tag,
                    "trace_id": response.trace_id,
                    "cache_key": response.cache_key,
                },
            )
        return response

    @staticmethod
    def _query_label(request: QueryRequest) -> str:
        return (
            request.query
            if isinstance(request.query, str)
            else f"<inline {type(request.query).__name__}>"
        )

    @staticmethod
    def _database_label(request: QueryRequest) -> str:
        return (
            request.database
            if isinstance(request.database, str)
            else "@inline"
        )


def run_once(
    query: Term,
    database: Database,
    *,
    arity: Optional[int] = None,
    engine: str = "nbe",
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Tuple[DecodedRelation, EngineResult]:
    """The uncached one-shot path: (encode,) apply, normalize, decode.

    This is what :func:`repro.eval.driver.run_query` wraps; the engine name
    is validated *before* any reduction engine encodes the database.
    """
    result = evaluate_term_query(
        query,
        database,
        engine=engine,
        fuel=fuel,
        max_depth=max_depth,
        output_arity=arity,
    )
    return _decoded(result, arity), result


def _decoded(result: EngineResult, arity: Optional[int]) -> DecodedRelation:
    """The relation an engine handed back.  Only a reduction engine's
    normal form is decoded (Lemma 3.2); ``"ra"`` hands its relation
    over as computed."""
    return result.decoded or decode_relation(result.normal_form, arity)
