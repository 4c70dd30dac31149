"""The asyncio HTTP/1.1 edge: certified TLI queries over the network.

One :class:`QueryEdge` wraps one (sync, thread-safe)
:class:`~repro.service.runtime.QueryService` behind a stdlib asyncio
socket server.  The pipeline per request is

    read/parse → auth → rate limit → price (certified fuel) →
    admission → ``loop.run_in_executor`` → respond

Evaluation stays on the service's synchronous path via a bounded thread
pool, so *single-flight batching is preserved across connections*: N
concurrent identical HTTP requests still cost one evaluation and N-1
in-flight waits, exactly as in-process callers observe.

Routes::

    GET  /health        readiness (503 while draining) + runtime info
    GET  /health/live   liveness only (200 while the process serves)
    GET  /metrics       Prometheus text exposition (repro_* families)
    GET  /v1/catalog    the registered databases and plans     [auth]
    POST /v1/query      one query                              [auth]
    POST /v1/batch      a batch, admitted as one fuel unit     [auth]
    POST /v1/explain    one query with EXPLAIN ANALYZE forced  [auth]
    GET  /debug/flight  retained flight records (?trace_id=)   [auth]

**Trace propagation.**  Query routes accept a W3C-shaped
``traceparent`` request header and adopt its trace id (minting a fresh
one otherwise), thread it through the service into the shard workers,
and echo a ``traceparent`` response header — so a caller can later
fetch the full flight record for its own request by trace id.

**Graceful drain.**  SIGTERM (or SIGINT) stops the listener, answers new
requests on kept-alive connections with 503 ``draining`` +
``Connection: close``, waits up to ``drain_timeout_s`` for in-flight
requests to finish writing their responses, closes idle connections,
closes the service (which closes the shard worker pool), and exits 0.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple
from urllib.parse import parse_qs

from repro import __version__
from repro.analysis.analyzer import fuel_budget
from repro.analysis.provenance import (
    check_schema_contract,
    database_schema,
    read_set_stats,
)
from repro.errors import ReproError
from repro.http.admission import AdmissionController, AdmissionTicket
from repro.http.auth import Authenticator
from repro.http.config import ServerConfig
from repro.http.ratelimit import RateLimiter
from repro.http.schemas import (
    ApiError,
    HttpResponse,
    QuerySpec,
    error_response,
    json_response,
    parse_batch_body,
    parse_query_body,
    query_http_status,
    render_query_response,
)
from repro.obs.flight import FlightRecorder
from repro.obs.info import runtime_info
from repro.obs.metrics import install_http_metrics
from repro.obs.tracing import (
    format_traceparent,
    make_trace_id,
    parse_traceparent,
)
from repro.service import QueryRequest, QueryService

__all__ = ["QueryEdge"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Content type of the Prometheus text exposition format.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_MAX_HEADERS = 100


@dataclass
class _Request:
    method: str
    path: str
    query_string: str
    headers: Dict[str, str]
    body: bytes
    peer: str


class _ConnectionClosed(Exception):
    """Peer hung up mid-request; nothing left to answer."""


class QueryEdge:
    """The HTTP front-end over one :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.service = service
        self.config = (config or ServerConfig()).validate()
        self.registry = service.registry
        self.metrics = install_http_metrics(self.registry)
        # The flight recorder: retain full EXPLAIN reports for slow,
        # errored, bound-breaching, or explicitly-explained requests.
        # Respect a recorder the service owner installed before us.
        self.flight: Optional[FlightRecorder] = service.flight
        if self.flight is None and self.config.flight_capacity > 0:
            self.flight = service.enable_flight(FlightRecorder(
                self.config.flight_capacity,
                slowest=self.config.flight_slowest,
                bound_ratio_threshold=self.config.flight_bound_ratio,
            ))
        self.auth = Authenticator(self.config.tokens)
        self.ratelimit = RateLimiter(
            self.config.rate_limit, self.config.rate_burst
        )
        capacity = self.config.max_inflight_fuel
        if capacity <= 0:
            capacity = self._auto_capacity()
        queue_capacity = self.config.max_queue_fuel
        if queue_capacity <= 0:
            queue_capacity = 2 * capacity
        self.admission = AdmissionController(
            capacity,
            queue_capacity,
            self.config.queue_timeout_s,
            retry_after_s=self.config.retry_after_s,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-http",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._inflight_requests = 0
        self._idle: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.metrics["draining"].set(0)
        self._routes = {
            ("GET", "/health"): (self._route_health, "/health"),
            ("GET", "/health/live"): (
                self._route_health_live, "/health/live",
            ),
            ("GET", "/metrics"): (self._route_metrics, "/metrics"),
            ("GET", "/v1/catalog"): (self._route_catalog, "/v1/catalog"),
            ("POST", "/v1/query"): (self._route_query, "/v1/query"),
            ("POST", "/v1/batch"): (self._route_batch, "/v1/batch"),
            ("POST", "/v1/explain"): (self._route_explain, "/v1/explain"),
            ("GET", "/debug/flight"): (
                self._route_flight, "/debug/flight",
            ),
        }

    def _auto_capacity(self) -> int:
        """Auto-size the fuel capacity from the catalog: admit
        ``auto_capacity_requests`` instances of the priciest registered
        certified plan against the priciest registered database.
        Certified costs span many orders of magnitude (a term plan's
        polynomial vs a fixpoint tower's), so capacity must be relative
        to the actual catalog, not an absolute constant."""
        catalog = self.service.catalog
        prices = []
        for db_entry in catalog.databases():
            for query_entry in catalog.queries():
                # Price each plan against its read-set's statistics
                # (TLI023): relations the plan never scans cannot
                # contribute to its Theorem 5.1 bound.
                priced_stats = read_set_stats(
                    query_entry.provenance, db_entry.database, db_entry.stats
                )
                prices.append(fuel_budget(
                    query_entry.effective_cost, priced_stats,
                    default=self.config.uncertified_fuel,
                ))
        peak = max(prices, default=self.config.uncertified_fuel)
        return peak * self.config.auto_capacity_requests

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None, "edge not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self._idle = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )

    async def run(self, *, install_signals: bool = True,
                  on_ready=None) -> None:
        """Start, serve until SIGTERM/SIGINT triggers a drain, return
        when the drain completed."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except NotImplementedError:  # pragma: no cover - windows
                    signal.signal(
                        sig, lambda *_: self.request_shutdown()
                    )
        if on_ready is not None:
            on_ready(self)
        assert self._stopped is not None
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; safe from a signal
        handler running on the event loop)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())

    async def shutdown(self) -> None:
        """Stop accepting, flush in-flight requests, close the service
        (and with it the shard worker pool)."""
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        self.metrics["draining"].set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._idle is not None and self._stopped is not None
        if self._inflight_requests == 0:
            self._idle.set()
        try:
            await asyncio.wait_for(
                self._idle.wait(), self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        # Everything in flight has answered; drop idle keep-alive
        # connections still parked in readline().
        for writer in list(self._writers):
            writer.close()
        self.service.close()
        self._executor.shutdown(wait=False)
        self._stopped.set()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics["connections"].inc()
        self.metrics["connections_active"].inc()
        self._writers.add(writer)
        peer = writer.get_extra_info("peername")
        peer_label = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    request = await self._read_request(reader, peer_label)
                except _ConnectionClosed:
                    break
                except ApiError as exc:
                    await self._write_response(
                        writer, error_response(exc), keep_alive=False
                    )
                    break
                if request is None:
                    break
                keep_alive = self._keep_alive(request)
                response, route = await self._dispatch(request)
                if self._draining:
                    keep_alive = False
                try:
                    await self._write_response(
                        writer, response, keep_alive=keep_alive
                    )
                except (ConnectionError, RuntimeError):
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            self._writers.discard(writer)
            self.metrics["connections_active"].dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, peer: str
    ) -> Optional[_Request]:
        try:
            line = await reader.readline()
        except ValueError as exc:
            raise ApiError(400, "bad_request",
                           f"request line too long: {exc}") from exc
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError as exc:
            raise ApiError(400, "bad_request",
                           "malformed request line") from exc
        if not version.startswith("HTTP/1."):
            raise ApiError(400, "bad_request",
                           f"unsupported protocol {version}")
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                raw = await reader.readline()
            except ValueError as exc:
                raise ApiError(400, "bad_request",
                               f"header line too long: {exc}") from exc
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise ApiError(400, "bad_request",
                               f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ApiError(400, "bad_request",
                           f"more than {_MAX_HEADERS} headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise ApiError(400, "bad_request",
                           "Content-Length is not an integer") from exc
        if length < 0:
            raise ApiError(400, "bad_request", "negative Content-Length")
        if length > self.config.max_body_bytes:
            raise ApiError(
                413, "payload_too_large",
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte cap",
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise _ConnectionClosed() from exc
        path, _, query_string = target.partition("?")
        return _Request(
            method=method.upper(),
            path=path,
            query_string=query_string,
            headers=headers,
            body=body,
            peer=peer,
        )

    @staticmethod
    def _keep_alive(request: _Request) -> bool:
        connection = request.headers.get("connection", "").lower()
        if connection == "close":
            return False
        return True  # HTTP/1.1 default (1.0 clients send Connection)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: HttpResponse,
        *,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        headers = {
            "Server": f"repro-edge/{__version__}",
            "Content-Type": response.content_type,
            "Content-Length": str(len(response.body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        headers.update(response.headers)
        head = f"HTTP/1.1 {response.status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        ) + "\r\n"
        writer.write(head.encode("latin-1") + response.body)
        await writer.drain()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[HttpResponse, str]:
        start = time.perf_counter()
        handler, route = self._routes.get(
            (request.method, request.path), (None, request.path)
        )
        self._inflight_requests += 1
        try:
            if handler is None:
                response = self._no_route(request)
                route = "<no-route>"
            elif self._draining and route.startswith("/v1"):
                response = error_response(ApiError(
                    503, "draining",
                    "the edge is draining; connection will close",
                    retry_after_s=self.config.retry_after_s,
                ))
            else:
                try:
                    response = await handler(request)
                except ApiError as exc:
                    response = error_response(exc)
                except ReproError as exc:
                    response = error_response(ApiError.from_exception(exc))
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - edge boundary
                    response = error_response(ApiError.from_exception(exc))
        finally:
            self._inflight_requests -= 1
            if self._draining and self._inflight_requests == 0 and (
                self._idle is not None
            ):
                self._idle.set()
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.metrics["http_requests"].inc(
            route=route, code=str(response.status)
        )
        self.metrics["http_latency"].observe(
            wall_ms, route=route, exemplar=response.exemplar
        )
        return response, route

    def _no_route(self, request: _Request) -> HttpResponse:
        known_paths = {path for _, path in self._routes}
        if request.path in known_paths:
            return error_response(ApiError(
                405, "method_not_allowed",
                f"{request.method} is not supported on {request.path}",
            ))
        return error_response(ApiError(
            404, "not_found", f"no route for {request.path}"
        ))

    # -- routes --------------------------------------------------------------

    async def _route_health(self, request: _Request) -> HttpResponse:
        ready = not self._draining
        payload = {
            "status": "ok" if ready else "draining",
            "live": True,
            "ready": ready,
            "runtime": runtime_info(),
            "admission": self.admission.snapshot(),
            "catalog": {
                "databases": len(self.service.catalog.databases()),
                "queries": len(self.service.catalog.queries()),
            },
        }
        return json_response(200 if ready else 503, payload)

    async def _route_health_live(self, request: _Request) -> HttpResponse:
        return json_response(
            200, {"live": True, "uptime_s": runtime_info()["uptime_s"]}
        )

    async def _route_metrics(self, request: _Request) -> HttpResponse:
        text = self.registry.render_prometheus()
        return HttpResponse(
            status=200,
            body=text.encode("utf-8"),
            content_type=_PROM_CONTENT_TYPE,
        )

    async def _route_catalog(self, request: _Request) -> HttpResponse:
        self._authenticate(request)
        return json_response(200, self.service.catalog.summary())

    async def _route_query(self, request: _Request) -> HttpResponse:
        return await self._serve_query(request)

    async def _route_explain(self, request: _Request) -> HttpResponse:
        """``/v1/query`` with EXPLAIN ANALYZE forced on: the payload's
        ``explain`` key joins the static certificate with the observed
        execution (and the flight recorder retains the report)."""
        return await self._serve_query(request, force_explain=True)

    async def _serve_query(
        self, request: _Request, *, force_explain: bool = False
    ) -> HttpResponse:
        self._authenticate(request)
        spec = parse_query_body(request.body)
        trace_id = self._trace_id(request)
        explain = spec.explain or force_explain
        database, fuel = self._price(spec)
        ticket = await self._admit(fuel)
        try:
            response = await self._run_sync(
                self._execute_one, spec, database, trace_id, explain
            )
        finally:
            self._release(ticket)
        payload = render_query_response(
            response,
            include_tuples=spec.include_tuples,
            admission=ticket.as_dict(),
        )
        out = json_response(query_http_status(response), payload)
        echoed = response.trace_id or trace_id
        out.headers["traceparent"] = format_traceparent(echoed)
        if self.flight is not None and (
            self.flight.lookup(echoed) is not None
        ):
            out.exemplar = echoed
        return out

    async def _route_flight(self, request: _Request) -> HttpResponse:
        """Retained flight records: all (newest first), or one by
        ``?trace_id=``; ``?limit=N`` caps the listing."""
        self._authenticate(request)
        flight = self.flight
        if flight is None:
            raise ApiError(
                404, "flight_disabled",
                "the flight recorder is disabled (flight_capacity=0)",
            )
        params = parse_qs(request.query_string)
        trace_id = (params.get("trace_id") or [None])[0]
        raw_limit = (params.get("limit") or [None])[0]
        limit: Optional[int] = None
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError as exc:
                raise ApiError(
                    400, "bad_request", "limit must be an integer"
                ) from exc
        if trace_id is not None:
            record = flight.lookup(trace_id)
            if record is None:
                raise ApiError(
                    404, "unknown_trace",
                    f"no flight record retained for trace {trace_id!r}",
                )
            records = [record]
        else:
            records = flight.records(limit=limit)
        return json_response(
            200, {"records": records, "stats": flight.snapshot()}
        )

    def _trace_id(self, request: _Request) -> str:
        """Adopt the caller's ``traceparent`` trace id, or mint one."""
        parsed = parse_traceparent(request.headers.get("traceparent"))
        return parsed if parsed is not None else make_trace_id()

    async def _route_batch(self, request: _Request) -> HttpResponse:
        self._authenticate(request)
        specs = parse_batch_body(request.body)
        priced = [self._price(spec) for spec in specs]
        total_fuel = sum(fuel for _, fuel in priced)
        # A batch is admitted as one unit: its certified cost is the sum
        # of its members' certificates (they may all run concurrently).
        ticket = await self._admit(total_fuel)
        try:
            result = await self._run_sync(self._execute_batch, specs, priced)
        finally:
            self._release(ticket)
        payload = {
            "responses": [
                render_query_response(
                    response, include_tuples=spec.include_tuples
                )
                for spec, response in zip(specs, result.responses)
            ],
            "stats": result.stats,
            "admission": ticket.as_dict(),
        }
        return json_response(200, payload)

    # -- request plumbing ----------------------------------------------------

    def _authenticate(self, request: _Request) -> str:
        principal = self.auth.principal(request.headers, request.peer)
        allowed, retry_after = self.ratelimit.allow(principal)
        if not allowed:
            self.metrics["rate_limited"].inc()
            raise ApiError(
                429, "rate_limited",
                f"client {principal} exceeded "
                f"{self.config.rate_limit:g} requests/s",
                retry_after_s=max(
                    1, int(retry_after or self.config.retry_after_s)
                ),
            )
        return principal

    def _price(self, spec: QuerySpec) -> Tuple[str, int]:
        """Resolve the spec against the catalog and price it in
        certified fuel units (explicit request fuel wins, then the
        effective cost certificate, then the pessimistic default)."""
        catalog = self.service.catalog
        try:
            entry = catalog.get_query(spec.query)
        except ReproError as exc:
            raise ApiError(404, "unknown_query", str(exc)) from exc
        database = spec.database
        if database is None:
            names = [e.name for e in catalog.databases()]
            if len(names) != 1:
                raise ApiError(
                    400, "bad_request",
                    f"request names no 'database' and {len(names)} are "
                    f"registered",
                )
            database = names[0]
        try:
            db_entry = catalog.get_database(database)
        except ReproError as exc:
            raise ApiError(404, "unknown_database", str(exc)) from exc
        if entry.provenance is not None:
            mismatches, _ = check_schema_contract(
                entry.provenance, database_schema(db_entry.database)
            )
            if mismatches:
                raise ApiError(
                    400, "bad_query",
                    f"[TLI024] query {spec.query!r} does not fit database "
                    f"{database!r}: " + "; ".join(mismatches),
                )
        if spec.fuel is not None:
            return database, max(1, spec.fuel)
        # Admission prices against the read-set-restricted statistics
        # (TLI023); the evaluation budget itself is set by the runtime
        # from the full statistics, so this only tightens admission.
        stats = read_set_stats(
            entry.provenance, db_entry.database, db_entry.stats
        )
        fuel = fuel_budget(
            entry.effective_cost, stats,
            default=self.config.uncertified_fuel,
        )
        return database, fuel

    async def _admit(self, fuel: int) -> AdmissionTicket:
        try:
            ticket = await self.admission.admit(fuel)
        except ApiError as exc:
            self.metrics["rejected_fuel"].inc(fuel, reason=exc.code)
            self._sync_admission_gauges()
            raise
        self.metrics["admitted_fuel"].inc(ticket.fuel)
        self._sync_admission_gauges()
        return ticket

    def _release(self, ticket: AdmissionTicket) -> None:
        self.admission.release(ticket)
        self._sync_admission_gauges()

    def _sync_admission_gauges(self) -> None:
        self.metrics["inflight_fuel"].set(self.admission.inflight_fuel)
        self.metrics["queue_fuel"].set(self.admission.queue_fuel)

    async def _run_sync(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _execute_one(
        self,
        spec: QuerySpec,
        database: str,
        trace_id: Optional[str] = None,
        explain: bool = False,
    ):
        self._debug_delay()
        return self.service.execute(self._to_request(
            spec, database, trace_id=trace_id, explain=explain
        ))

    def _execute_batch(self, specs, priced):
        self._debug_delay()
        requests = [
            self._to_request(spec, database, explain=spec.explain)
            for spec, (database, _) in zip(specs, priced)
        ]
        return self.service.execute_batch(requests)

    def _to_request(
        self,
        spec: QuerySpec,
        database: str,
        *,
        trace_id: Optional[str] = None,
        explain: bool = False,
    ) -> QueryRequest:
        timeout_s = spec.timeout_s
        if timeout_s is None:
            timeout_s = self.config.request_timeout_s
        return QueryRequest(
            query=spec.query,
            database=database,
            engine=spec.engine,
            arity=spec.arity,
            fuel=spec.fuel,
            timeout_s=timeout_s,
            tag=spec.tag,
            shards=spec.shards,
            trace_id=trace_id,
            explain=explain,
        )

    def _debug_delay(self) -> None:
        if self.config.debug_delay_ms > 0:
            time.sleep(self.config.debug_delay_ms / 1000.0)


def render_listen_line(edge: QueryEdge) -> str:
    """The one-line startup banner (parsed by tests and CI probes)."""
    return (
        f"repro-edge {__version__} listening on "
        f"http://{edge.config.host}:{edge.port} "
        f"(auth={'on' if edge.auth.enabled else 'OFF'}, "
        f"capacity={edge.admission.capacity} fuel)"
    )
