"""The HTTP-edge benchmark: latency sweep plus the overload error budget.

Starts an in-process :class:`repro.http.server.QueryEdge` on an
ephemeral loopback port and drives it over real sockets, then writes
``BENCH_http.json``:

* ``sweep`` — for each concurrency level: client-observed p50/p95/p99
  request latency and throughput (requests/second);
* ``overload`` — a burst against a deliberately tiny fuel capacity:
  over-budget requests must be *rejected at the door* (429/503 with
  ``Retry-After``), quickly, while every admitted evaluation keeps its
  Theorem 5.1 observed/bound ratio <= 1.

The overload gates are asserted unconditionally (smoke and full runs):

* >= 95% of the over-budget burst is rejected with 429/503;
* the median client-observed rejection latency is < 50 ms;
* no admitted response reports ``bound_ratio > 1``.

    python benchmarks/bench_http.py --smoke --out /tmp/BENCH_http.json
    python benchmarks/bench_http.py
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time


def build_service(tuples: int, seed: int):
    from repro.db.generators import random_relation
    from repro.db.relations import Database
    from repro.queries.language import QueryArity
    from repro.queries.relalg_compile import build_ra_query
    from repro.relalg.ast import Base, Project, Union
    from repro.service import QueryService

    database = Database.of({"E": random_relation(2, tuples, seed=seed)})
    schema = {"E": 2}
    signature = QueryArity((2,), 2)
    plans = {
        "sym": Union(Project(Base("E"), (1, 0)), Base("E")),
        "diag": Project(Base("E"), (0, 0)),
    }
    service = QueryService()
    service.catalog.register_database("main", database)
    for name, expr in plans.items():
        service.catalog.register_query(
            name,
            build_ra_query(expr, ["E"], schema),
            signature=signature,
        )
    return service


def certified_fuel(service, query: str) -> int:
    """The price the edge charges for ``query`` on "main": the binding's
    certificate at the read-set's statistics."""
    catalog = service.catalog
    entry = catalog.get_query(query)
    return catalog.bind(entry, catalog.get_database("main"), entry.engine).price


# ---------------------------------------------------------------------------
# A minimal asyncio HTTP client (one connection per request)
# ---------------------------------------------------------------------------

async def http_post(port: int, path: str, payload: dict):
    """POST ``payload``; returns (status, parsed body, wall seconds)."""
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await reader.readexactly(length) if length else b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, json.loads(raw) if raw else None, (
        time.perf_counter() - start
    )


def percentiles(samples_s):
    from repro.obs.metrics import quantile

    ordered = sorted(s * 1000.0 for s in samples_s)
    return {
        "p50": round(quantile(ordered, 0.50), 3),
        "p95": round(quantile(ordered, 0.95), 3),
        "p99": round(quantile(ordered, 0.99), 3),
    }


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

async def run_sweep(edge, levels, requests_per_level):
    rows = []
    queries = ["sym", "diag"]
    for concurrency in levels:
        semaphore = asyncio.Semaphore(concurrency)
        latencies = []
        errors = 0

        async def one(index):
            nonlocal errors
            async with semaphore:
                status, _, wall = await http_post(
                    edge.port, "/v1/query",
                    {"query": queries[index % len(queries)]},
                )
                if status != 200:
                    errors += 1
                latencies.append(wall)

        start = time.perf_counter()
        await asyncio.gather(
            *[one(i) for i in range(requests_per_level)]
        )
        total = time.perf_counter() - start
        rows.append({
            "concurrency": concurrency,
            "requests": requests_per_level,
            "errors": errors,
            "throughput_rps": round(requests_per_level / total, 2),
            "latency_ms": percentiles(latencies),
        })
    return rows


async def run_overload(edge, burst):
    admitted = []
    rejected = []

    async def one(index):
        status, payload, wall = await http_post(
            edge.port, "/v1/query", {"query": "sym"}
        )
        if status in (429, 503):
            rejected.append((status, wall, payload))
        else:
            admitted.append((status, wall, payload))

    await asyncio.gather(*[one(i) for i in range(burst)])

    rejection_statuses = {}
    for status, _, _ in rejected:
        key = str(status)
        rejection_statuses[key] = rejection_statuses.get(key, 0) + 1
    over_budget = max(1, burst - len(admitted))
    rejected_ratio = len(rejected) / over_budget
    rejection_latency = percentiles([wall for _, wall, _ in rejected])
    retry_hinted = sum(
        1 for _, _, payload in rejected
        if payload and "retry_after_s" in payload.get("error", {})
    )
    ratios = [
        payload["profile"]["bound_ratio"]
        for status, _, payload in admitted
        if status == 200 and payload.get("profile")
        and payload["profile"].get("bound_ratio") is not None
    ]
    return {
        "burst": burst,
        "capacity_fuel": edge.admission.capacity,
        "admitted": len(admitted),
        "rejected": len(rejected),
        "over_budget": over_budget,
        "rejected_ratio": round(rejected_ratio, 4),
        "rejection_statuses": rejection_statuses,
        "retry_after_hints": retry_hinted,
        "rejection_latency_ms": rejection_latency,
        "admitted_bound_ratio_max": max(ratios) if ratios else None,
        "bound_ratios_le_one": all(r <= 1.0 for r in ratios),
    }


def http_metrics_snapshot(service):
    return {
        entry["name"]: entry["values"]
        for entry in service.registry.as_dict()["metrics"]
        if entry["name"].startswith("repro_http_")
    }


def run(smoke: bool, out: str) -> None:
    from repro.http import QueryEdge, ServerConfig

    tuples = 40 if smoke else 150
    levels = [1, 4] if smoke else [1, 4, 8, 16]
    requests_per_level = 24 if smoke else 200
    # Big enough to be decisively over budget (capacity admits ~2),
    # small enough that client-observed rejection latency measures the
    # admission fast path, not loop congestion from the connect storm.
    burst = 24 if smoke else 48

    async def bench():
        # Phase 1: the latency/throughput sweep against an auto-sized
        # (never overloaded) edge.
        sweep_service = build_service(tuples, seed=7)
        sweep_edge = QueryEdge(sweep_service, ServerConfig(port=0))
        await sweep_edge.start()
        try:
            sweep = await run_sweep(sweep_edge, levels, requests_per_level)
        finally:
            await sweep_edge.shutdown()

        # Phase 2: overload.  Capacity fits exactly one 'sym'
        # certificate and the queue one waiter; a short debug delay
        # keeps the admitted request in flight so the burst really is
        # over budget.
        overload_service = build_service(tuples, seed=7)
        fuel = certified_fuel(overload_service, "sym")
        overload_edge = QueryEdge(overload_service, ServerConfig(
            port=0,
            max_inflight_fuel=fuel,
            max_queue_fuel=fuel,
            queue_timeout_s=0.2,
            rate_limit=0.0,
            debug_delay_ms=25.0,
        ))
        await overload_edge.start()
        try:
            overload = await run_overload(overload_edge, burst)
        finally:
            await overload_edge.shutdown()
        return sweep, overload, http_metrics_snapshot(sweep_service)

    sweep, overload, metrics = asyncio.run(bench())

    assert overload["rejected_ratio"] >= 0.95, (
        f"only {overload['rejected_ratio']:.0%} of the over-budget burst "
        f"was rejected at the door"
    )
    assert overload["rejection_latency_ms"]["p50"] < 50.0, (
        f"median rejection took "
        f"{overload['rejection_latency_ms']['p50']}ms; overload must be "
        f"refused fast, not discovered by timeout"
    )
    assert overload["bound_ratios_le_one"], (
        "an admitted evaluation exceeded its certified step bound"
    )

    payload = {
        "experiment": "http",
        "smoke": smoke,
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "tuples": tuples,
            "queries": ["sym", "diag"],
            "requests_per_level": requests_per_level,
        },
        "sweep": sweep,
        "overload": overload,
        "metrics": metrics,
    }
    out_path = os.path.abspath(
        out
        or os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            os.pardir,
            "BENCH_http.json",
        )
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for row in sweep:
        print(
            f"c={row['concurrency']:>3} {row['throughput_rps']:>8} req/s "
            f"p50 {row['latency_ms']['p50']}ms "
            f"p95 {row['latency_ms']['p95']}ms "
            f"p99 {row['latency_ms']['p99']}ms"
        )
    print(
        f"overload: {overload['rejected']}/{overload['burst']} rejected "
        f"(ratio {overload['rejected_ratio']}) "
        f"median {overload['rejection_latency_ms']['p50']}ms"
    )
    print(f"wrote {out_path}")


def main(argv) -> None:
    args = list(argv[1:])
    smoke = False
    out = None
    index = 0
    while index < len(args):
        arg = args[index]
        if arg == "--smoke":
            smoke = True
        elif arg == "--out":
            index += 1
            out = args[index]
        else:
            raise SystemExit(f"unknown argument {arg!r}")
        index += 1
    run(smoke, out)


if __name__ == "__main__":
    sys.path.insert(
        0,
        os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
        ),
    )
    main(sys.argv)
