"""Tests for the HTTP edge: schemas, auth, rate limiting, admission,
end-to-end request handling, single-flight through the network, and
graceful drain (in-process and as a real ``repro serve`` subprocess)."""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.db.generators import random_database
from repro.errors import ParseError, ReproError
from repro.http import (
    AdmissionController,
    Authenticator,
    QueryEdge,
    RateLimiter,
    ServerConfig,
    parse_batch_body,
    parse_query_body,
)
from repro.http.schemas import (
    ApiError,
    QuerySpec,
    error_response,
    query_http_status,
)
from repro.lam.parser import parse
from repro.obs import HTTP_METRIC_NAMES
from repro.queries.fixpoint import transitive_closure_query
from repro.queries.language import QueryArity
from repro.service.runtime import (
    STATUS_ERROR,
    STATUS_FUEL,
    STATUS_OK,
    STATUS_TIMEOUT,
)

SWAP = r"\R1. \R2. \c. \n. R1 (\x y T. c y x T) n"
SIG22 = QueryArity((2, 2), 2)


def make_service():
    from repro.service import QueryService

    db = random_database([2, 2], [8, 6], universe_size=6, seed=11)
    svc = QueryService()
    svc.catalog.register_database("main", db)
    svc.catalog.register_query("swap", parse(SWAP), signature=SIG22)
    svc.catalog.register_query("tc", transitive_closure_query("R1"))
    return svc


def run_edge(scenario, *, service=None, **cfg):
    """Start a :class:`QueryEdge` on an ephemeral port, run the async
    ``scenario(edge)``, always drain, return the scenario's result."""
    service = service or make_service()
    cfg.setdefault("host", "127.0.0.1")
    cfg.setdefault("port", 0)
    edge = QueryEdge(service, ServerConfig(**cfg))

    async def main():
        await edge.start()
        try:
            return await scenario(edge)
        finally:
            await edge.shutdown()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Minimal async HTTP/1.1 client (the edge is stdlib-only; so is the test)
# ---------------------------------------------------------------------------

async def _send(writer, method, path, *, body=None, token=None,
                headers=None, close=True):
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if token is not None:
        head += f"Authorization: Bearer {token}\r\n"
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    if close:
        head += "Connection: close\r\n"
    head += "\r\n"
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()


async def _read_response(reader):
    status_line = await reader.readline()
    assert status_line, "connection closed before a status line"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def request(port, method, path, *, body=None, token=None,
                  headers=None, raw_body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if raw_body is not None:
            payload = raw_body
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {len(payload)}\r\n"
            )
            if token is not None:
                head += f"Authorization: Bearer {token}\r\n"
            head += "Connection: close\r\n\r\n"
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        else:
            await _send(writer, method, path, body=body, token=token,
                        headers=headers)
        status, resp_headers, resp_body = await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    parsed = json.loads(resp_body) if resp_body and (
        resp_headers.get("content-type", "").startswith("application/json")
    ) else resp_body
    return status, resp_headers, parsed


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

class TestSchemas:
    def test_parse_query_body_full(self):
        spec = parse_query_body(json.dumps({
            "query": "swap", "database": "main", "engine": "nbe",
            "arity": 2, "fuel": 100, "timeout_s": 1.5, "shards": 2,
            "tag": "t", "include_tuples": False,
        }).encode())
        assert spec == QuerySpec(
            query="swap", database="main", engine="nbe", arity=2,
            fuel=100, timeout_s=1.5, shards=2, tag="t",
            include_tuples=False,
        )

    def test_timeout_accepts_int(self):
        assert parse_query_body(
            b'{"query": "q", "timeout_s": 2}'
        ).timeout_s == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError) as err:
            parse_query_body(b'{"query": "q", "fuelz": 3}')
        assert err.value.status == 400 and "fuelz" in str(err.value)

    def test_missing_query_rejected(self):
        with pytest.raises(ApiError):
            parse_query_body(b'{"database": "main"}')

    def test_bool_does_not_pose_as_int(self):
        with pytest.raises(ApiError) as err:
            parse_query_body(b'{"query": "q", "fuel": true}')
        assert "wrong type" in str(err.value)

    def test_non_object_rejected(self):
        with pytest.raises(ApiError):
            parse_query_body(b'[1, 2]')

    def test_bad_json_rejected(self):
        with pytest.raises(ApiError) as err:
            parse_query_body(b'{not json')
        assert err.value.code == "bad_request"

    def test_batch_bare_list_and_wrapper(self):
        specs = parse_batch_body(b'[{"query": "a"}, {"query": "b"}]')
        assert [s.query for s in specs] == ["a", "b"]
        specs = parse_batch_body(b'{"requests": [{"query": "c"}]}')
        assert [s.query for s in specs] == ["c"]

    def test_batch_empty_rejected(self):
        with pytest.raises(ApiError):
            parse_batch_body(b'[]')
        with pytest.raises(ApiError):
            parse_batch_body(b'{"requests": []}')

    def test_batch_cap(self):
        body = json.dumps([{"query": "q"}] * 5).encode()
        with pytest.raises(ApiError) as err:
            parse_batch_body(body, max_requests=4)
        assert "cap" in str(err.value)

    def test_error_envelope_shape(self):
        resp = error_response(
            ApiError(429, "over_capacity", "full", retry_after_s=3)
        )
        assert resp.status == 429
        assert resp.headers["Retry-After"] == "3"
        payload = json.loads(resp.body)
        assert payload["error"]["code"] == "over_capacity"
        assert payload["error"]["status"] == 429
        assert payload["error"]["retry_after_s"] == 3

    def test_envelope_without_retry_after(self):
        resp = error_response(ApiError(404, "not_found", "nope"))
        assert "Retry-After" not in resp.headers
        assert "retry_after_s" not in json.loads(resp.body)["error"]

    def test_status_mapping(self):
        class R:
            def __init__(self, status):
                self.status = status

        assert query_http_status(R(STATUS_OK)) == 200
        assert query_http_status(R(STATUS_FUEL)) == 422
        assert query_http_status(R(STATUS_TIMEOUT)) == 504
        assert query_http_status(R(STATUS_ERROR)) == 400
        assert query_http_status(R("???")) == 500

    def test_from_exception_taxonomy(self):
        assert ApiError.from_exception(ParseError("x")).code == "bad_query"
        assert ApiError.from_exception(ReproError("x")).code == "bad_request"
        internal = ApiError.from_exception(ValueError("x"))
        assert internal.status == 500 and internal.code == "internal"
        same = ApiError(401, "unauthorized", "x")
        assert ApiError.from_exception(same) is same


# ---------------------------------------------------------------------------
# Auth
# ---------------------------------------------------------------------------

class TestAuthenticator:
    def test_open_edge_uses_peer(self):
        auth = Authenticator(())
        assert not auth.enabled
        assert auth.principal({}, "10.0.0.9") == "peer:10.0.0.9"

    def test_missing_header(self):
        auth = Authenticator(("s3cret",))
        with pytest.raises(ApiError) as err:
            auth.principal({}, "p")
        assert err.value.status == 401

    def test_wrong_scheme(self):
        auth = Authenticator(("s3cret",))
        with pytest.raises(ApiError):
            auth.principal({"authorization": "Basic s3cret"}, "p")

    def test_wrong_token(self):
        auth = Authenticator(("s3cret",))
        with pytest.raises(ApiError):
            auth.principal({"authorization": "Bearer nope"}, "p")

    def test_principal_is_token_index_not_value(self):
        auth = Authenticator(("alpha", "beta"))
        principal = auth.principal(
            {"authorization": "Bearer beta"}, "p"
        )
        assert principal == "token:1"
        assert "beta" not in principal


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------

class TestRateLimiter:
    def test_burst_then_deny_then_refill(self):
        now = [0.0]
        limiter = RateLimiter(2.0, 3, clock=lambda: now[0])
        assert all(limiter.allow("c")[0] for _ in range(3))
        denied, retry = limiter.allow("c")
        assert not denied and retry is not None and retry > 0
        now[0] += 1.0  # 2 tokens refilled
        assert limiter.allow("c")[0]
        assert limiter.allow("c")[0]
        assert not limiter.allow("c")[0]

    def test_principals_are_independent(self):
        now = [0.0]
        limiter = RateLimiter(1.0, 1, clock=lambda: now[0])
        assert limiter.allow("a")[0]
        assert not limiter.allow("a")[0]
        assert limiter.allow("b")[0]

    def test_disabled(self):
        limiter = RateLimiter(0.0, 1)
        assert all(limiter.allow("c") == (True, None) for _ in range(100))

    def test_lru_bound(self):
        now = [0.0]
        limiter = RateLimiter(1.0, 1, max_buckets=4, clock=lambda: now[0])
        for i in range(20):
            limiter.allow(f"client-{i}")
        assert len(limiter._buckets) == 4


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def run_async(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_immediate_admit_and_release(self):
        async def scenario():
            ctl = AdmissionController(100, 200, 1.0)
            ticket = await ctl.admit(60)
            assert ticket.fuel == 60 and ticket.queued_ms == 0.0
            assert ctl.inflight_fuel == 60
            ctl.release(ticket)
            assert ctl.inflight_fuel == 0
            snap = ctl.snapshot()
            assert snap["capacity_fuel"] == 100
            assert snap["queue_depth"] == 0

        run_async(scenario())

    def test_oversize_is_rejected_outright(self):
        async def scenario():
            ctl = AdmissionController(100, 200, 1.0)
            with pytest.raises(ApiError) as err:
                await ctl.admit(101)
            assert err.value.status == 429
            assert err.value.code == "over_capacity"

        run_async(scenario())

    def test_fuel_floor_is_one(self):
        async def scenario():
            ctl = AdmissionController(10, 10, 1.0)
            ticket = await ctl.admit(0)
            assert ticket.fuel == 1

        run_async(scenario())

    def test_fifo_wait_then_admit(self):
        async def scenario():
            ctl = AdmissionController(100, 300, 5.0)
            first = await ctl.admit(100)
            order = []

            async def waiter(name, fuel):
                ticket = await ctl.admit(fuel)
                order.append(name)
                return ticket

            tasks = [
                asyncio.create_task(waiter("big", 90)),
                asyncio.create_task(waiter("small", 10)),
            ]
            await asyncio.sleep(0.05)
            assert ctl.queue_fuel == 100
            ctl.release(first)
            tickets = await asyncio.gather(*tasks)
            # Strict arrival order: the big head is not starved by the
            # small one that would have fit first.
            assert order == ["big", "small"]
            assert all(t.queued_ms > 0 for t in tickets)

        run_async(scenario())

    def test_queue_full_rejected_fast(self):
        async def scenario():
            ctl = AdmissionController(10, 15, 5.0, retry_after_s=2)
            blocker = await ctl.admit(10)
            task = asyncio.create_task(ctl.admit(10))
            await asyncio.sleep(0.02)
            start = time.perf_counter()
            with pytest.raises(ApiError) as err:
                await ctl.admit(10)  # queue holds 10/15; +10 overflows
            assert (time.perf_counter() - start) < 0.5
            assert err.value.status == 429
            assert err.value.retry_after_s == 2
            ctl.release(blocker)
            ctl.release(await task)

        run_async(scenario())

    def test_wait_timeout_is_503(self):
        async def scenario():
            ctl = AdmissionController(10, 100, 0.05)
            blocker = await ctl.admit(10)
            with pytest.raises(ApiError) as err:
                await ctl.admit(5)
            assert err.value.status == 503
            assert err.value.code == "admission_timeout"
            # The timed-out waiter left the queue; capacity is intact.
            assert ctl.queue_fuel == 0
            ctl.release(blocker)
            assert ctl.inflight_fuel == 0

        run_async(scenario())

    def test_cancelled_waiter_returns_fuel(self):
        async def scenario():
            ctl = AdmissionController(10, 100, 5.0)
            blocker = await ctl.admit(10)
            task = asyncio.create_task(ctl.admit(5))
            await asyncio.sleep(0.02)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            ctl.release(blocker)
            assert ctl.inflight_fuel == 0
            assert ctl.queue_fuel == 0

        run_async(scenario())


# ---------------------------------------------------------------------------
# End-to-end over real sockets
# ---------------------------------------------------------------------------

class TestEdgeEndToEnd:
    def test_health_and_liveness(self):
        async def scenario(edge):
            status, _, payload = await request(edge.port, "GET", "/health")
            assert status == 200
            assert payload["ready"] is True and payload["live"] is True
            assert payload["runtime"]["build"]["version"]
            assert payload["runtime"]["uptime_s"] >= 0
            assert payload["admission"]["capacity_fuel"] > 0
            assert payload["catalog"] == {"databases": 1, "queries": 2}
            status, _, live = await request(
                edge.port, "GET", "/health/live"
            )
            assert status == 200 and live["live"] is True

        run_edge(scenario)

    def test_metrics_exposition(self):
        async def scenario(edge):
            await request(edge.port, "GET", "/health")
            status, headers, body = await request(
                edge.port, "GET", "/metrics"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = body.decode("utf-8")
            for name in HTTP_METRIC_NAMES:
                assert name in text, f"missing {name}"
            assert 'repro_http_requests_total{code="200"' in text

        run_edge(scenario)

    def test_auth_required_and_accepted(self):
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query", body={"query": "swap"}
            )
            assert status == 401
            assert payload["error"]["code"] == "unauthorized"
            # Health and metrics stay open (probes have no secrets).
            status, _, _ = await request(edge.port, "GET", "/health")
            assert status == 200
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap"}, token="s3cret",
            )
            assert status == 200 and payload["status"] == "ok"
            status, _, payload = await request(
                edge.port, "GET", "/v1/catalog", token="s3cret"
            )
            assert status == 200 and "queries" in payload

        run_edge(scenario, tokens=("s3cret",))

    def test_routing_errors(self):
        async def scenario(edge):
            status, _, payload = await request(edge.port, "GET", "/nope")
            assert status == 404
            assert payload["error"]["code"] == "not_found"
            status, _, payload = await request(
                edge.port, "GET", "/v1/query"
            )
            assert status == 405
            assert payload["error"]["code"] == "method_not_allowed"
            status, _, payload = await request(
                edge.port, "POST", "/v1/query", raw_body=b"{broken"
            )
            assert status == 400
            status, _, payload = await request(
                edge.port, "POST", "/v1/query", body={"query": "ghost"}
            )
            assert status == 404
            assert payload["error"]["code"] == "unknown_query"
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "ghost"},
            )
            assert status == 404
            assert payload["error"]["code"] == "unknown_database"

        run_edge(scenario)

    def test_query_ok_with_admission_block(self):
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "main"},
            )
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["arity"] == 2 and payload["tuples"]
            assert payload["admission"]["certified_fuel"] > 0
            assert payload["admission"]["queued_ms"] == 0.0
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "include_tuples": False},
            )
            assert status == 200 and "tuples" not in payload

        run_edge(scenario)

    def test_fixpoint_on_multi_relation_database(self):
        # make_service registers "main" with two relations (R1, R2) and
        # "tc" reading only R1: the fixpoint engine must evaluate against
        # the multi-relation database (the ROADMAP decode bug) and the
        # edge must price admission from R1's statistics alone.
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "tc", "database": "main"},
            )
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["arity"] == 2
            assert payload["engine"] == "fixpoint"

        run_edge(scenario)

    def test_schema_contract_rejected_at_admission(self):
        from repro.db.relations import Database, Relation
        from repro.service import QueryService

        svc = make_service()
        # A second database with three relations: "swap" binds exactly
        # two inputs positionally, so the contract (TLI024) fails before
        # any fuel is admitted.
        svc.catalog.register_database(
            "wide",
            Database.of({
                "A": Relation.from_tuples(2, [("a", "b")]),
                "B": Relation.from_tuples(2, [("b", "c")]),
                "C": Relation.from_tuples(1, [("a",)]),
            }),
        )

        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "wide"},
            )
            assert status == 400
            assert payload["error"]["code"] == "bad_query"
            assert "TLI024" in payload["error"]["message"]

        run_edge(scenario, service=svc)

    def test_fuel_exhausted_maps_to_422(self):
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                # Fuel applies to reduction engines, so pin "nbe" (the
                # auto-selected compiled engine never exhausts fuel).
                body={"query": "swap", "fuel": 2, "engine": "nbe"},
            )
            assert status == 422
            assert payload["status"] == "fuel_exhausted"

        run_edge(scenario)

    def test_batch_roundtrip(self):
        async def scenario(edge):
            body = {"requests": [
                {"query": "swap"},
                {"query": "swap"},
                {"query": "swap", "database": "main"},
            ]}
            status, _, payload = await request(
                edge.port, "POST", "/v1/batch", body=body
            )
            assert status == 200
            assert [r["status"] for r in payload["responses"]] == ["ok"] * 3
            assert payload["stats"]["requests"] == 3
            assert payload["admission"]["certified_fuel"] > 0
            status, _, payload = await request(
                edge.port, "POST", "/v1/batch",
                body=[{"query": "swap"}, {"query": "ghost"}],
            )
            assert status == 404

        run_edge(scenario)

    def test_rate_limit_429(self):
        async def scenario(edge):
            seen = []
            for _ in range(4):
                status, headers, payload = await request(
                    edge.port, "GET", "/v1/catalog"
                )
                seen.append(status)
            assert seen[:2] == [200, 200]
            assert 429 in seen[2:]
            assert payload["error"]["code"] == "rate_limited"
            assert "retry-after" in headers

        run_edge(scenario, rate_limit=0.001, rate_burst=2)

    def test_oversize_plan_rejected_429(self):
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query", body={"query": "swap"}
            )
            assert status == 429
            assert payload["error"]["code"] == "over_capacity"

        # Far below any certified plan cost: nothing can ever run.
        run_edge(scenario, max_inflight_fuel=10, max_queue_fuel=10)

    def test_overload_rejected_fast_at_the_door(self):
        from repro.analysis.analyzer import fuel_budget
        from repro.analysis.cost import DatabaseStats

        service = make_service()
        entry = service.catalog.get_query("swap")
        db_entry = service.catalog.get_database("main")
        stats = db_entry.stats or DatabaseStats.of(db_entry.database)
        fuel = fuel_budget(entry.effective_cost, stats, default=10 ** 7)

        async def scenario(edge):
            results = await asyncio.gather(*[
                request(edge.port, "POST", "/v1/query",
                        body={"query": "swap"})
                for _ in range(4)
            ])
            statuses = sorted(status for status, _, _ in results)
            # The first request holds the whole capacity (debug delay
            # keeps it in flight); with a token queue and a short wait,
            # the rest are refused at the door.
            assert statuses[0] == 200
            assert all(s in (429, 503) for s in statuses[1:])
            rejected = [p for s, _, p in results if s != 200]
            assert all("error" in p for p in rejected)
            # Fuel accounting drained back to zero.
            assert edge.admission.inflight_fuel == 0

        run_edge(
            scenario, service=service,
            max_inflight_fuel=fuel, max_queue_fuel=1,
            queue_timeout_s=0.05, rate_limit=0.0,
            debug_delay_ms=300.0,
        )


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` wherever a loaded module of the
    program looks the name up; returns the list of recorded calls."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if (
            module_name.partition(".")[0] == "repro"
            and getattr(loaded, name, None) is original
        ):
            monkeypatch.setattr(loaded, name, counting)
    return calls


class TestBindingAtTheEdge:
    """The edge prices a request through the binding the runtime then
    serves it with: one contract check and one pricing per plan and
    database version."""

    def test_identical_requests_check_the_contract_once(self, monkeypatch):
        from repro.analysis import provenance

        service = make_service()
        checks = count_calls(monkeypatch, provenance, "check_schema_contract")

        async def scenario(edge):
            for _ in range(5):
                status, _, payload = await request(
                    edge.port, "POST", "/v1/query", body={"query": "swap"}
                )
                assert status == 200 and payload["status"] == "ok"

        # A fixed capacity: auto-sizing would bind every registered pair
        # before the first request.
        run_edge(scenario, service=service, max_inflight_fuel=10 ** 9)
        assert len(checks) == 1

    def test_partial_read_set_is_swept_once(self, monkeypatch):
        from repro.analysis.cost import DatabaseStats

        original = DatabaseStats.of
        sweeps = []

        def counting(database):
            sweeps.append(database)
            return original(database)

        async def scenario(edge):
            # "tc" reads R1 of main's R1, R2: admission prices it at the
            # statistics of R1 alone, computed once per database version.
            monkeypatch.setattr(DatabaseStats, "of", staticmethod(counting))
            body = {"query": "tc", "database": "main"}
            status, _, _ = await request(
                edge.port, "POST", "/v1/query", body=body
            )
            assert status == 200
            after_first = len(sweeps)
            for _ in range(4):
                status, _, _ = await request(
                    edge.port, "POST", "/v1/query", body=body
                )
                assert status == 200
            assert len(sweeps) == after_first

        run_edge(scenario)

    def test_contract_breaking_replacement_is_refused(self):
        from repro.db.relations import Database, Relation

        service = make_service()

        async def scenario(edge):
            body = {"query": "swap", "database": "main"}
            status, _, _ = await request(
                edge.port, "POST", "/v1/query", body=body
            )
            assert status == 200
            service.update_database("main", Database.of({
                "A": Relation.from_tuples(2, [("a", "b")]),
                "B": Relation.from_tuples(2, [("b", "c")]),
                "C": Relation.from_tuples(1, [("a",)]),
            }))
            status, _, payload = await request(
                edge.port, "POST", "/v1/query", body=body
            )
            assert status == 400
            assert payload["error"]["code"] == "bad_query"
            assert "TLI024" in payload["error"]["message"]

        run_edge(scenario, service=service)


class TestFlightAndExplain:
    def test_traceparent_adopted_and_echoed(self):
        from repro.obs import make_trace_id

        trace = make_trace_id()

        async def scenario(edge):
            status, headers, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "main"},
                headers={"traceparent": f"00-{trace}-00f067aa0ba902b7-01"},
            )
            assert status == 200
            assert payload["trace_id"] == trace
            assert headers["traceparent"].split("-")[1] == trace
            # Without a caller header the edge mints a fresh id.
            status, headers, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "main"},
            )
            assert status == 200
            assert payload["trace_id"]
            assert payload["trace_id"] != trace
            assert headers["traceparent"].split("-")[1] == (
                payload["trace_id"]
            )

        run_edge(scenario)

    def test_explain_route_and_flight_lookup(self):
        from repro.obs import make_trace_id

        trace = make_trace_id()

        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/explain",
                body={"query": "swap", "database": "main", "shards": 2},
                headers={"traceparent": f"00-{trace}-00f067aa0ba902b7-01"},
            )
            assert status == 200
            report = payload["explain"]
            assert report["trace_id"] == trace
            assert "explain" in report["reasons"]
            assert report["static"]["order"] == 3
            assert report["static"]["cost"]
            assert report["static"]["distribution"]["mode"]
            rows = report["observed"]["shards"]
            assert sorted(row["shard"] for row in rows) == [0, 1]
            workers = [
                s for s in report["spans"] if s["name"] == "worker.task"
            ]
            assert sorted(w["attrs"]["shard"] for w in workers) == [0, 1]
            assert all(s["trace_id"] == trace for s in report["spans"])
            # The same report is retrievable from the flight recorder.
            status, _, payload = await request(
                edge.port, "GET", f"/debug/flight?trace_id={trace}"
            )
            assert status == 200
            assert payload["records"][0]["trace_id"] == trace
            assert payload["stats"]["retained"] >= 1
            status, _, payload = await request(
                edge.port, "GET", "/debug/flight?trace_id=deadbeef"
            )
            assert status == 404
            assert payload["error"]["code"] == "unknown_trace"
            status, _, payload = await request(
                edge.port, "GET", "/debug/flight?limit=1"
            )
            assert status == 200
            assert len(payload["records"]) == 1

        run_edge(scenario)

    def test_query_with_explain_field(self):
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "main",
                      "explain": True},
            )
            assert status == 200
            assert payload["explain"]["static"]["query"] == "swap"
            # Plain queries carry no report in the payload.
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "main"},
            )
            assert status == 200 and "explain" not in payload

        run_edge(scenario)

    def test_flight_route_respects_auth_and_capacity_zero(self):
        async def scenario(edge):
            status, _, payload = await request(
                edge.port, "GET", "/debug/flight"
            )
            assert status == 401
            status, _, payload = await request(
                edge.port, "GET", "/debug/flight", token="s3cret"
            )
            assert status == 200
            assert payload["records"] == []

        run_edge(scenario, tokens=("s3cret",))

        async def disabled(edge):
            assert edge.flight is None
            status, _, payload = await request(
                edge.port, "GET", "/debug/flight"
            )
            assert status == 404
            assert payload["error"]["code"] == "flight_disabled"
            # Queries still serve (and still propagate trace ids).
            status, _, payload = await request(
                edge.port, "POST", "/v1/query",
                body={"query": "swap", "database": "main"},
            )
            assert status == 200 and payload["trace_id"]

        run_edge(disabled, flight_capacity=0)

    def test_exemplar_on_http_latency(self):
        async def scenario(edge):
            status, _, _ = await request(
                edge.port, "POST", "/v1/explain",
                body={"query": "swap", "database": "main"},
            )
            assert status == 200
            snap = edge.metrics["http_latency"].snapshot(
                route="/v1/explain"
            )
            exemplars = snap.get("exemplars") or {}
            assert exemplars, "no exemplar recorded on http_latency"
            trace_ids = {ex["trace_id"] for ex in exemplars.values()}
            assert all(len(t) == 32 for t in trace_ids)
            # The exemplar links to a retrievable flight record.
            for trace in trace_ids:
                assert edge.flight.lookup(trace) is not None

        run_edge(scenario)


class TestSingleFlightOverHttp:
    def test_identical_concurrent_requests_evaluate_once(self):
        service = make_service()
        original = service._evaluate
        started = []

        def slow_evaluate(*args, **kwargs):
            started.append(time.monotonic())
            time.sleep(0.25)
            return original(*args, **kwargs)

        service._evaluate = slow_evaluate
        clients = 5

        async def scenario(edge):
            results = await asyncio.gather(*[
                request(edge.port, "POST", "/v1/query",
                        body={"query": "swap", "database": "main"})
                for _ in range(clients)
            ])
            assert [status for status, _, _ in results] == [200] * clients
            tuple_sets = {
                json.dumps(payload["tuples"], sort_keys=True)
                for _, _, payload in results
            }
            assert len(tuple_sets) == 1

        run_edge(scenario, service=service, workers=clients,
                 rate_limit=0.0)
        # Exactly one evaluation; everyone else waited on the in-flight
        # one (not served from a later cache lookup race).
        assert len(started) == 1
        stats = service.cache.stats()
        assert stats.inflight_waits == clients - 1
        assert stats.misses == 1
        assert stats.hits == clients - 1


class TestGracefulDrain:
    def test_inflight_request_completes_then_connections_close(self):
        service = make_service()

        async def scenario(edge):
            port = edge.port
            reader_a, writer_a = await asyncio.open_connection(
                "127.0.0.1", port
            )
            reader_b, writer_b = await asyncio.open_connection(
                "127.0.0.1", port
            )
            try:
                # A has a slow query in flight when the drain begins.
                await _send(writer_a, "POST", "/v1/query",
                            body={"query": "swap"}, close=False)
                await asyncio.sleep(0.1)
                drain = asyncio.create_task(edge.shutdown())
                await asyncio.sleep(0.05)
                assert edge.draining
                # New work on an existing connection is refused.
                await _send(writer_b, "POST", "/v1/query",
                            body={"query": "swap"}, close=False)
                status_b, headers_b, body_b = await _read_response(
                    reader_b
                )
                assert status_b == 503
                assert json.loads(body_b)["error"]["code"] == "draining"
                assert headers_b["connection"] == "close"
                # The in-flight request still gets its full answer.
                status_a, headers_a, body_a = await _read_response(
                    reader_a
                )
                assert status_a == 200
                assert json.loads(body_a)["status"] == "ok"
                assert headers_a["connection"] == "close"
                await drain
            finally:
                for writer in (writer_a, writer_b):
                    writer.close()
            # Drained: the listener is gone and the service is closed.
            assert service.closed
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        async def main():
            edge = QueryEdge(service, ServerConfig(
                host="127.0.0.1", port=0, debug_delay_ms=400.0,
            ))
            await edge.start()
            await scenario(edge)

        asyncio.run(main())

    def test_shutdown_idempotent_without_traffic(self):
        async def scenario(edge):
            await edge.shutdown()
            await edge.shutdown()
            assert edge.service.closed

        run_edge(scenario)


LISTEN_RE = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


class TestServeSubprocess:
    """The acceptance drain test: a real ``repro serve`` process,
    SIGTERM mid-batch, every in-flight response delivered, exit 0."""

    def test_sigterm_mid_batch_flushes_and_exits_zero(self, tmp_path):
        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps(
            {"E": [["o1", "o2"], ["o2", "o3"], ["o3", "o4"]]}
        ))
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        env["REPRO_HTTP_DEBUG_DELAY_MS"] = "600"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", f"main={db_path}",
                "--fixpoint", "tc=tc",
                "--port", "0", "--workers", "4",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = LISTEN_RE.search(banner)
            assert match, f"no listen banner in {banner!r}"
            port = int(match.group(1))

            body = json.dumps({"requests": [
                {"query": "tc", "tag": "a"},
                {"query": "tc", "tag": "b"},
            ]}).encode()
            head = (
                f"POST /v1/batch HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            with socket.create_connection(("127.0.0.1", port), 5) as sock:
                sock.sendall(head + body)
                time.sleep(0.2)  # the batch is now in flight
                proc.send_signal(signal.SIGTERM)
                sock.settimeout(30)
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            header_blob, _, payload_blob = raw.partition(b"\r\n\r\n")
            status_line = header_blob.split(b"\r\n", 1)[0]
            assert b"200" in status_line, raw[:200]
            payload = json.loads(payload_blob)
            assert len(payload["responses"]) == 2
            assert all(
                r["status"] == "ok" for r in payload["responses"]
            )

            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, (out, err)
            assert "drained; shard pool closed" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
