"""The query service runtime: cached, budgeted, batched evaluation.

One request = one (query plan, database) pair plus budgets.  The runtime

1. resolves both against the :class:`~repro.service.catalog.Catalog`
   (inline terms/specs and inline databases are accepted for one-shot
   use — inline databases are cached by content digest);
2. consults the :class:`~repro.service.cache.ResultCache` under a
   *single-flight* lock, so N concurrent identical requests cost one
   evaluation and N-1 waits;
3. on a miss, evaluates on the plan's engine (``nbe`` / ``smallstep`` /
   ``applicative`` for term plans, the Theorem 5.2 stage evaluator for
   fixpoint plans) under the request's fuel/depth budgets;
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
from collections import OrderedDict
from concurrent.futures import (
    CancelledError,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.analyzer import fuel_budget
from repro.analysis.cost import CostProfile, DatabaseStats
from repro.analysis.provenance import (
    ProvenanceFacts,
    check_schema_contract,
    database_schema,
    scanned_relation_names,
    version_subvector,
)
from repro.compile import (
    CompileDecision,
    CompileFallback,
    run_fixpoint_query_compiled,
)
from repro.db.decode import DecodedRelation, decode_relation
from repro.db.relations import Database, Relation
from repro.errors import (
    EvaluationError,
    FuelExhausted,
    ReproError,
    SchemaError,
)
from repro.lam.terms import Term, digest
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
from repro.queries.language import QueryArity
from repro.service.cache import CachedResult, CacheKey, ResultCache
from repro.shard.policy import FALLBACK_ERROR, ShardPolicy
from repro.service.catalog import (
    Catalog,
    DatabaseEntry,
    QueryEntry,
    database_digest,
)
from repro.service.engines import (
    DEFAULT_MAX_DEPTH,
    FIXPOINT_ENGINE,
    RA_ENGINE,
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
#: digest x schema names).  Classification is cheap to redo, so a small
#: bound beats an unbounded dict on long-lived services with churning
#: inline queries or schemas.
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


@dataclass(frozen=True)
class _ResolvedQuery:
    """A query request target, normalized to one shape."""

    name: str
    digest: str
    engine: str
    term: Optional[Term]
    fixpoint: Optional[FixpointQuery]
    output_arity: Optional[int]
    #: The effective profile (absint-tightened when adopted): drives fuel
    #: budgets, static bounds, and per-shard fuel splits.
    cost: Optional[CostProfile] = None
    #: The syntactic profile, kept so the tightening ratio can be
    #: reported when the two differ.
    base_cost: Optional[CostProfile] = None
    signature: Optional[QueryArity] = None
    #: The read-set / schema-contract certificate (TLI023): keys the
    #: result cache on the read-set's version sub-vector and gates the
    #: admission-time contract check.
    provenance: Optional[ProvenanceFacts] = None
    #: The Definition 3.7 order certificate found at registration
    #: (``i + 3`` for TLI=i); reported in explain output.
    order: Optional[int] = None
    #: The compiler's registration-time decision (TLI028/TLI029);
    #: EXPLAIN's static section carries it.
    compiled: Optional[CompileDecision] = None


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
        # Memoized static halves of EXPLAIN reports: the certificate
        # side is constant per (plan, engine, database version), and
        # re-describing cost polynomials per request is the dominant
        # cost of flight recording on the cache-hit path.
        self._explain_static_cache: Dict[Tuple, dict] = {}
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
        self._plan_cache: "OrderedDict[Tuple[str, Tuple[str, ...]], object]" = (
            OrderedDict()
        )
        self._plan_cache_lock = threading.Lock()

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
        try:
            future = self._timeout_executor().submit(self._serve, request)
        except (ReproError, RuntimeError) as exc:
            # The service closed between the caller's check and the
            # submit (RuntimeError: "cannot schedule new futures after
            # shutdown").  A closed service answers, it does not raise.
            return self._closed_response(request, start, exc)
        try:
            return future.result(timeout=request.timeout_s)
        except FutureTimeout:
            # Never wait for an abandoned worker: its fuel/depth budget
            # bounds it, and a late success still lands in the cache.
            # Cancelling drops evaluations the shared pool has not started
            # yet, so sustained timeouts cannot queue useless work.
            future.cancel()
            return self._timed_out(request, request.timeout_s * 1000.0)
        except CancelledError as exc:
            # close() cancelled the queued future before a worker picked
            # it up.
            return self._closed_response(request, start, exc)

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

    def _closed_response(
        self, request: QueryRequest, start: float, exc: BaseException
    ) -> QueryResponse:
        response = QueryResponse(
            status=STATUS_ERROR,
            query=self._query_label(request),
            database=self._database_label(request),
            database_version=0,
            engine=request.engine or "?",
            error=f"service closed before the request could run ({exc})",
            wall_ms=(time.perf_counter() - start) * 1000.0,
            tag=request.tag,
            trace_id=request.trace_id,
        )
        self._observe(response)
        return response

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
                    responses.append(
                        self._timed_out(
                            request,
                            (time.perf_counter() - start) * 1000.0,
                        )
                    )
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

    def _resolve_query(self, request: QueryRequest) -> _ResolvedQuery:
        query = request.query
        if isinstance(query, str):
            entry: QueryEntry = self.catalog.get_query(query)
            engine = request.engine or entry.engine
            return _ResolvedQuery(
                name=entry.name,
                digest=entry.digest,
                engine=engine,
                term=entry.plan_term,
                fixpoint=entry.fixpoint,
                output_arity=entry.output_arity,
                cost=entry.effective_cost,
                base_cost=entry.cost,
                signature=entry.signature,
                provenance=entry.provenance,
                order=entry.order,
                compiled=entry.compiled,
            )
        if isinstance(query, FixpointQuery):
            spec_digest = hashlib.sha256(repr(query).encode()).hexdigest()
            return _ResolvedQuery(
                name="<inline fixpoint>",
                digest="fx:" + spec_digest,
                engine=request.engine or FIXPOINT_ENGINE,
                term=None,
                fixpoint=query,
                output_arity=query.output_arity,
            )
        if isinstance(query, Term):
            return _ResolvedQuery(
                name="<inline term>",
                digest=digest(query),
                engine=request.engine or "nbe",
                term=query,
                fixpoint=None,
                output_arity=None,
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
                response = QueryResponse(
                    status=STATUS_ERROR,
                    query=self._query_label(request),
                    database=self._database_label(request),
                    database_version=0,
                    engine=request.engine or "?",
                    error=str(exc),
                    wall_ms=(time.perf_counter() - start) * 1000.0,
                    tag=request.tag,
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
        self._observe(response, exemplar_recorded=recorded)
        return response

    def _serve_inner(
        self,
        request: QueryRequest,
        start: float,
        extras: Dict[str, object],
    ) -> QueryResponse:
        tracer = self.tracer
        if request.engine is not None:
            validate_engine(request.engine, allow_fixpoint=True)
        with tracer.span("resolve") as span:
            resolved = self._resolve_query(request)
            db_entry = self._resolve_database(request)
            span.set_attr("query", resolved.name)
            span.set_attr("database", db_entry.name)
        extras["resolved"] = resolved
        extras["db_entry"] = db_entry
        if resolved.engine == FIXPOINT_ENGINE and resolved.fixpoint is None:
            raise ReproError(
                f"query {resolved.name!r} has no fixpoint spec; the "
                f"'fixpoint' engine applies to FixpointQuery plans only"
            )
        self._check_contract(resolved, db_entry)
        policy, shard_plan = self._shard_dispatch(request, resolved, db_entry)
        # Sharded results come back in canonical (merged) order, so they
        # must not share cache entries with in-process results: the shard
        # spec is folded into the cache key's engine component.
        engine_key = (
            f"{resolved.engine}#s{policy.shards}:{policy.partitioner}"
            if policy is not None
            else resolved.engine
        )
        key: CacheKey = (
            resolved.digest,
            db_entry.name,
            self._version_key(resolved, db_entry),
            engine_key,
        )
        extras["cache_key"] = hashlib.sha256(
            repr(key).encode()
        ).hexdigest()[:16]
        extras["policy"] = policy
        extras["plan"] = shard_plan
        arity = (
            request.arity
            if request.arity is not None
            else resolved.output_arity
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
                    return self._from_cache(
                        request, resolved, db_entry, cached, arity, start
                    )
                self._metrics["cache_misses"].inc()
                collector = ProfileCollector()
                try:
                    computed = self._evaluate(
                        request, resolved, db_entry, arity, collector,
                        policy=policy, shard_plan=shard_plan,
                    )
                except FuelExhausted as exc:
                    return QueryResponse(
                        status=STATUS_FUEL,
                        query=resolved.name,
                        database=db_entry.name,
                        database_version=db_entry.version,
                        engine=resolved.engine,
                        steps=exc.steps,
                        fuel_budget=self._fuel_for(
                            request, resolved, db_entry
                        ),
                        error=str(exc),
                        wall_ms=(time.perf_counter() - start) * 1000.0,
                        tag=request.tag,
                        profile=self._finish_profile(
                            collector, resolved, db_entry, exc.steps
                        ),
                    )
                self.cache.put(key, computed)
            finally:
                lock.release()
        finally:
            self._release_key(key)

        wall_ms = (time.perf_counter() - start) * 1000.0
        return QueryResponse(
            status=STATUS_OK,
            query=resolved.name,
            database=db_entry.name,
            database_version=db_entry.version,
            # What actually ran ("ra" may have degraded to "nbe").
            engine=computed.engine,
            relation=computed.relation,
            reduced_form=computed.normal_form,
            steps=computed.steps,
            stages=computed.stages,
            fuel_budget=computed.fuel_budget,
            cache_hit=False,
            wall_ms=wall_ms,
            compute_wall_ms=computed.compute_wall_ms,
            tag=request.tag,
            profile=computed.profile,
        )

    @staticmethod
    def _check_contract(
        resolved: _ResolvedQuery, db_entry: DatabaseEntry
    ) -> None:
        """Admission-time schema-contract check (TLI024): reject the
        (plan, database) pair before any evaluation when the database
        cannot satisfy the plan's read contract — the failure that used
        to surface as a stuck encoding at decode time."""
        if resolved.provenance is None:
            return
        mismatches, _ = check_schema_contract(
            resolved.provenance, database_schema(db_entry.database)
        )
        if mismatches:
            raise SchemaError(
                f"[TLI024] query {resolved.name!r} does not fit database "
                f"{db_entry.name!r}: " + "; ".join(mismatches)
            )

    @staticmethod
    def _version_key(
        resolved: _ResolvedQuery, db_entry: DatabaseEntry
    ):
        """The cache key's version component: the read-set's sub-vector
        of the per-relation version vector when the plan carries a
        provenance certificate, the global version otherwise."""
        if resolved.provenance is None:
            return db_entry.version
        return version_subvector(
            resolved.provenance,
            db_entry.database,
            db_entry.versions,
            db_entry.version,
        )

    def _evaluate(
        self,
        request: QueryRequest,
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
        arity: Optional[int],
        collector: ProfileCollector,
        *,
        policy: Optional[ShardPolicy] = None,
        shard_plan=None,
    ) -> CachedResult:
        tracer = self.tracer
        compute_start = time.perf_counter()
        if policy is not None and shard_plan is not None:
            return self._evaluate_sharded(
                request, resolved, db_entry, arity, policy, shard_plan
            )
        ran_engine = resolved.engine
        if resolved.engine == FIXPOINT_ENGINE:
            from repro.eval.ptime import run_fixpoint_query

            with tracer.span("evaluate", engine=resolved.engine) as span:
                try:
                    run = run_fixpoint_query(
                        resolved.fixpoint,
                        db_entry.database,
                        max_depth=request.max_depth,
                        observer=collector,
                    )
                finally:
                    self._annotate_evaluation(span, collector)
                span.set_attr("stages", run.stages)
            decoded, normal_form = run.decoded, run.normal_form
            steps: Optional[int] = run.nbe_steps
            stages: Optional[int] = run.stages
            fuel: Optional[int] = None
        elif (
            resolved.engine == RA_ENGINE and resolved.fixpoint is not None
        ):
            # The set-based fixpoint runner: RA stages on Python sets,
            # no lambda tower anywhere.
            with tracer.span("evaluate", engine=RA_ENGINE) as span:
                run = run_fixpoint_query_compiled(
                    resolved.fixpoint, db_entry.database
                )
                collector({"steps": run.nbe_steps})
                self._annotate_evaluation(span, collector)
                span.set_attr("stages", run.stages)
            self._compile_metrics["compile_requests"].inc(path="compiled")
            decoded, normal_form = run.decoded, run.normal_form
            steps = run.nbe_steps
            stages = run.stages
            fuel = None
        else:
            with tracer.span("fuel") as span:
                fuel = self._fuel_for(request, resolved, db_entry)
                span.set_attr("budget", fuel)
                span.set_attr(
                    "derived",
                    request.fuel is None and resolved.cost is not None,
                )
            with tracer.span("evaluate", engine=resolved.engine) as span:
                try:
                    result = self._evaluate_term(
                        request, resolved, db_entry, arity, fuel,
                        collector, span,
                    )
                finally:
                    self._annotate_evaluation(span, collector)
            with tracer.span("decode"):
                decoded = _decoded(result, arity)
            ran_engine = result.engine
            normal_form = result.reduced_form
            steps = result.steps
            stages = None
        compute_ms = (time.perf_counter() - compute_start) * 1000.0
        return CachedResult(
            relation=decoded.relation,
            decoded=decoded,
            normal_form=normal_form,
            engine=ran_engine,
            steps=steps,
            stages=stages,
            compute_wall_ms=compute_ms,
            fuel_budget=fuel,
            profile=self._finish_profile(collector, resolved, db_entry, steps),
            database_version=db_entry.version,
        )

    def _evaluate_term(
        self,
        request: QueryRequest,
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
        arity: Optional[int],
        fuel: int,
        collector: ProfileCollector,
        span,
    ) -> EngineResult:
        """One in-process term evaluation, with the ``"ra"`` runtime
        fallback: a plan that cannot compile (or lacks the certified
        output arity) degrades to NBE — same relation, reduction
        semantics — and the degradation is counted and annotated rather
        than surfaced as an error."""
        engine = resolved.engine
        if engine == RA_ENGINE:
            try:
                result = evaluate_term_query(
                    resolved.term,
                    db_entry.database,
                    engine=engine,
                    fuel=fuel,
                    max_depth=request.max_depth,
                    observer=collector,
                    output_arity=arity,
                )
                self._compile_metrics["compile_requests"].inc(
                    path="compiled"
                )
                return result
            except (CompileFallback, EvaluationError, SchemaError) as exc:
                self._compile_metrics["compile_runtime_fallbacks"].inc()
                self._compile_metrics["compile_requests"].inc(
                    path="fallback"
                )
                span.set_attr("compile_fallback", str(exc))
                engine = "nbe"
        return evaluate_term_query(
            resolved.term,
            db_entry.database,
            engine=engine,
            fuel=fuel,
            max_depth=request.max_depth,
            observer=collector,
        )

    # -- sharded evaluation --------------------------------------------------

    def _shard_dispatch(
        self,
        request: QueryRequest,
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
    ):
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
        plan = self._distribution_plan(resolved, db_entry)
        scanned = scanned_relation_names(
            resolved.provenance, db_entry.database
        )
        if scanned is not None:
            from repro.shard.planner import refine_distribution

            plan, _dropped = refine_distribution(plan, set(scanned))
        usable = False
        if plan.distributable:
            try:
                chosen = plan.choose_partition(db_entry.database)
                usable = set(chosen) <= set(db_entry.database.names)
            except ReproError:
                usable = False
        if not usable:
            self._shard_metrics["shard_requests"].inc(mode="local-only")
            if policy.fallback == FALLBACK_ERROR:
                raise ReproError(
                    f"[{plan.code}] query {resolved.name!r} is not "
                    f"shard-distributable: {plan.reason}"
                )
            with self.tracer.span(
                "shard.fallback", code=plan.code, reason=plan.reason
            ):
                pass
            return None, None
        self._shard_metrics["shard_requests"].inc(mode=plan.mode)
        return policy, plan

    def _distribution_plan(
        self, resolved: _ResolvedQuery, db_entry: DatabaseEntry
    ):
        """The (memoized) distribution classification of one plan against
        one database schema."""
        from repro.shard.planner import (
            DistributionPlan,
            MODE_LOCAL,
            CODE_LOCAL_ONLY,
            plan_distribution,
        )

        names = tuple(db_entry.database.names)
        key = (resolved.digest, names)
        with self._plan_cache_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                return plan
        try:
            if resolved.fixpoint is not None:
                plan = plan_distribution(resolved.fixpoint)
            else:
                plan = plan_distribution(
                    resolved.term,
                    signature=resolved.signature,
                    input_names=names,
                )
        except ReproError as exc:
            plan = DistributionPlan(
                mode=MODE_LOCAL,
                kind="term" if resolved.term is not None else "fixpoint",
                partition_names=(),
                broadcast_names=names,
                code=CODE_LOCAL_ONLY,
                reason=f"distribution analysis failed: {exc}",
            )
        with self._plan_cache_lock:
            self._plan_cache[key] = plan
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > PLAN_CACHE_CAPACITY:
                self._plan_cache.popitem(last=False)
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
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
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
        scanned = scanned_relation_names(
            resolved.provenance, db_entry.database
        )
        if resolved.fixpoint is not None and (
            resolved.engine in (FIXPOINT_ENGINE, RA_ENGINE)
        ):
            outcome = execute_sharded_fixpoint(
                pool=pool,
                tracer=self.tracer,
                policy=policy,
                plan=shard_plan,
                fixpoint=resolved.fixpoint,
                database=db_entry.database,
                db_digest=db_entry.digest,
                cost=resolved.cost,
                max_depth=request.max_depth,
            )
        else:
            outcome = execute_sharded_term(
                pool=pool,
                tracer=self.tracer,
                policy=policy,
                plan=shard_plan,
                term=resolved.term,
                engine=resolved.engine,
                database=db_entry.database,
                db_digest=db_entry.digest,
                arity=arity,
                cost=resolved.cost,
                fuel_override=request.fuel,
                default_fuel=DEFAULT_FUEL,
                max_depth=request.max_depth,
                scanned_names=scanned,
            )
        with self.tracer.span("decode"):
            decoded = DecodedRelation.of(outcome.relation)
        fuels = [
            row["fuel"]
            for row in outcome.shard_rows
            if row.get("fuel") is not None
        ]
        compute_ms = (time.perf_counter() - compute_start) * 1000.0
        return CachedResult(
            relation=decoded.relation,
            decoded=decoded,
            normal_form=None,
            engine=resolved.engine,
            steps=outcome.steps,
            stages=outcome.stages,
            compute_wall_ms=compute_ms,
            fuel_budget=max(fuels) if fuels else None,
            profile=self._shard_profile(
                outcome, resolved, db_entry, policy, shard_plan
            ),
            database_version=db_entry.version,
        )

    def _shard_profile(
        self,
        outcome,
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
        policy: ShardPolicy,
        shard_plan,
    ) -> dict:
        """The response profile of a sharded run: the full-database static
        bound plus the per-shard rows.  The gauge (and headline ratio) is
        the *worst per-shard* observed/bound ratio — each shard evaluation
        is a Theorem 5.1 run over its own shard database, so that is the
        ratio the theorem bounds by 1 (summing shard steps against the
        full-database bound would double-count broadcast work)."""
        bound: Optional[int] = None
        tightening: Optional[float] = None
        if resolved.cost is not None:
            bound = resolved.cost.bound(db_entry.stats)
            tightening = self._note_tightening(resolved, db_entry.stats)
        ratios = [
            row["bound_ratio"]
            for row in outcome.shard_rows
            if row.get("bound_ratio") is not None
        ]
        ratio = max(ratios) if ratios else None
        if ratio is not None:
            self._metrics["bound_ratio"].set(ratio, query=resolved.name)
        return {
            "steps": outcome.steps,
            "static_bound": bound,
            "bound_ratio": ratio,
            "tightening_ratio": tightening,
            "shard": outcome.profile_dict(policy, shard_plan),
        }

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

    def _explain_static(self, extras: Dict[str, object]) -> dict:
        """The certificate side: what the analyzers promised before the
        request ran (order, cost polynomial before/after tightening,
        read-set, distribution class)."""
        resolved = extras.get("resolved")
        db_entry = extras.get("db_entry")
        if not isinstance(resolved, _ResolvedQuery):
            return {}
        entry = db_entry if isinstance(db_entry, DatabaseEntry) else None
        key = (
            resolved.digest,
            resolved.name,
            resolved.engine,
            entry.name if entry is not None else None,
            entry.version if entry is not None else None,
        )
        cached = self._explain_static_cache.get(key)
        if cached is not None:
            static = dict(cached)
            return self._explain_static_request(static, extras)
        static = self._explain_static_base(resolved, entry)
        if len(self._explain_static_cache) >= 128:
            self._explain_static_cache.clear()
        self._explain_static_cache[key] = dict(static)
        return self._explain_static_request(static, extras)

    def _explain_static_base(
        self,
        resolved: "_ResolvedQuery",
        db_entry: Optional[DatabaseEntry],
    ) -> dict:
        """The memoizable part of the static section — everything that
        depends only on the resolved plan and the database version."""
        static: Dict[str, object] = {
            "query": resolved.name,
            "digest": resolved.digest[:12],
            "kind": "fixpoint" if resolved.fixpoint is not None else "term",
            "engine": resolved.engine,
            "order": resolved.order,
            "signature": (
                str(resolved.signature)
                if resolved.signature is not None
                else None
            ),
            "cost": (
                resolved.base_cost.describe()
                if resolved.base_cost is not None
                else None
            ),
            "tightened_cost": (
                resolved.cost.describe()
                if resolved.cost is not None
                and resolved.base_cost is not None
                and resolved.cost != resolved.base_cost
                else None
            ),
            "read_set": (
                resolved.provenance.describe()
                if resolved.provenance is not None
                else None
            ),
            "compile": (
                resolved.compiled.as_dict()
                if resolved.compiled is not None
                else None
            ),
        }
        if db_entry is not None and resolved.cost is not None:
            stats = db_entry.stats
            static["static_bound"] = resolved.cost.bound(stats)
            if (
                resolved.base_cost is not None
                and resolved.base_cost != resolved.cost
            ):
                base = resolved.base_cost.bound(stats)
                static["base_bound"] = base
                if base > 0:
                    static["tightening_ratio"] = round(
                        resolved.cost.bound(stats) / base, 6
                    )
        return static

    @staticmethod
    def _explain_static_request(
        static: Dict[str, object], extras: Dict[str, object]
    ) -> dict:
        """Per-request additions to the static section (the resolved
        distribution plan and shard policy vary with the request's
        ``shards`` ask, so they stay out of the memo)."""
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
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
        steps: Optional[int],
    ) -> dict:
        """The response-facing profile: the collected breakdown plus the
        static cost bound and the observed/bound ratio (mirrored to the
        ``repro_steps_bound_ratio`` gauge)."""
        profile = collector.profile.as_dict()
        bound: Optional[int] = None
        tightening: Optional[float] = None
        if resolved.cost is not None:
            bound = resolved.cost.bound(db_entry.stats)
            tightening = self._note_tightening(resolved, db_entry.stats)
        ratio = bound_ratio(steps, bound)
        profile["static_bound"] = bound
        profile["bound_ratio"] = (
            round(ratio, 6) if ratio is not None else None
        )
        profile["tightening_ratio"] = tightening
        if ratio is not None:
            self._metrics["bound_ratio"].set(ratio, query=resolved.name)
        return profile

    def _note_tightening(
        self, resolved: _ResolvedQuery, stats: DatabaseStats
    ) -> Optional[float]:
        """When the effective profile is a tightened one, report how much
        sharper it is (tightened/syntactic bound, in (0, 1]) on the
        ``repro_cost_tightening_ratio`` gauge."""
        if (
            resolved.cost is None
            or resolved.base_cost is None
            or resolved.cost == resolved.base_cost
        ):
            return None
        base = resolved.base_cost.bound(stats)
        if base <= 0:
            return None
        ratio = resolved.cost.bound(stats) / base
        self._metrics["tightening"].set(ratio, query=resolved.name)
        return round(ratio, 6)

    @staticmethod
    def _fuel_for(
        request: QueryRequest,
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
    ) -> int:
        """The fuel this evaluation runs under: an explicit request budget
        wins; otherwise the plan's static cost certificate instantiated at
        the database's size statistics; otherwise the flat default."""
        if request.fuel is not None:
            return request.fuel
        return fuel_budget(resolved.cost, db_entry.stats, default=DEFAULT_FUEL)

    def _from_cache(
        self,
        request: QueryRequest,
        resolved: _ResolvedQuery,
        db_entry: DatabaseEntry,
        cached: CachedResult,
        arity: Optional[int],
        start: float,
    ) -> QueryResponse:
        if arity is not None and cached.relation.arity != arity:
            raise ReproError(
                f"query {resolved.name!r} produced arity "
                f"{cached.relation.arity}, request asserts {arity}"
            )
        return QueryResponse(
            status=STATUS_OK,
            query=resolved.name,
            database=db_entry.name,
            database_version=db_entry.version,
            engine=cached.engine,
            relation=cached.relation,
            reduced_form=cached.normal_form,
            steps=cached.steps,
            stages=cached.stages,
            fuel_budget=cached.fuel_budget,
            cache_hit=True,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            compute_wall_ms=cached.compute_wall_ms,
            tag=request.tag,
            profile=cached.profile,
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
    ) -> None:
        """Fold one finished response into the registry (and the slow-query
        log).  Called for every response, including synthesized timeout
        responses — matching the pre-registry counting semantics.

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

    def _timed_out(
        self, request: QueryRequest, wall_ms: float
    ) -> QueryResponse:
        response = QueryResponse(
            status=STATUS_TIMEOUT,
            query=self._query_label(request),
            database=self._database_label(request),
            database_version=0,
            engine=request.engine or "?",
            error=f"request missed its {request.timeout_s}s deadline",
            wall_ms=wall_ms,
            tag=request.tag,
            trace_id=request.trace_id,
        )
        self._observe(response)
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
