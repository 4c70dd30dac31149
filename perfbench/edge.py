"""The ``edge_hot`` workload: a ``QueryEdge`` child process and its client.

The serving process (``python3 perfbench/edge.py --seed N``) builds the
catalog, starts the edge on an ephemeral loopback port and prints one
JSON line ``{"port": ..., "setup_s": ...}``.  It then reads commands on
standard input -- ``trace 1`` / ``trace 0`` install or remove the span
wrappers, ``stop`` drains the edge -- and prints its result (spans,
cache statistics, metrics registry, peak RSS) as the last line before
it exits.  ``--probe`` stops right after start-up: a set-up sample.

The client (:func:`drive`) runs in the benchmark process: two threads,
each with one keep-alive connection and its own bearer token, in a
closed loop over the seeded Zipf stream of ``workloads.edge_stream``.
Every request carries a ``traceparent`` header, so the edge's spans join
the client's request.  While timing, the client keeps only the latency,
the status and the bytes of the ``tuples`` field; answers are checked
against the oracle afterwards.

The edge keeps its defaults (flight recorder, worker count, admission
auto-sizing).  Only two settings differ: bearer tokens, one per
connection, and a per-principal rate far above what one connection can
send, so ``RateLimiter.allow`` runs on every request but never refuses.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import socket
import subprocess
import sys
import threading
import time

from run import ROOT, require_checkout

perf_counter = time.perf_counter

CONNECTIONS = 2
TOKENS = tuple(f"perfbench-token-{i}" for i in range(CONNECTIONS))
RATE_LIMIT = 1_000_000.0
RATE_BURST = 1_000_000
WARMUP_PER_CONNECTION = 300
TINY_WARMUP_PER_CONNECTION = 20


# ---------------------------------------------------------------------------
# The serving process
# ---------------------------------------------------------------------------

def serve(seed: int, tiny: bool, probe: bool, trace: bool) -> None:
    import asyncio

    import calibrate
    import workloads as W
    from repro.http import QueryEdge, ServerConfig
    from repro.service import QueryService
    from spans import Recorder

    sizes = (W.TINY_SIZES if tiny else W.FULL_SIZES)["edge_hot"]
    rows = W.build_inputs("edge_hot", seed, sizes)
    databases = {name: W.to_database(rels) for name, rels in rows.items()}
    recorder = Recorder()
    out_lock = threading.Lock()

    def emit(payload: dict) -> None:
        with out_lock:
            sys.stdout.write(json.dumps(payload) + "\n")
            sys.stdout.flush()

    def commands(loop, edge) -> None:
        # Commands arrive only while the client has no request in flight.
        for line in sys.stdin:
            command = line.strip()
            reply = {"ack": command}
            if command == "trace 1":
                recorder.install()
            elif command == "trace 0":
                recorder.uninstall()
            elif command == "calibrate":
                reply["cal_s"] = calibrate.snippet_seconds()
            elif command == "stop":
                break
            emit(reply)
        loop.call_soon_threadsafe(edge.request_shutdown)

    async def main():
        if trace:
            recorder.install()
        before = calibrate.snippet_seconds()
        start = perf_counter()
        catalog = W.build_catalog("edge_hot", databases)
        service = QueryService(catalog)
        edge = QueryEdge(service, ServerConfig(
            host="127.0.0.1", port=0, tokens=TOKENS,
            rate_limit=RATE_LIMIT, rate_burst=RATE_BURST,
        ))
        loop = asyncio.get_running_loop()
        reader = threading.Thread(target=commands, args=(loop, edge),
                                  daemon=True)

        def ready(started) -> None:
            raw = perf_counter() - start
            recorder.uninstall()
            scale = calibrate.factor(before, calibrate.snippet_seconds())
            emit({"port": started.port, "setup_s": raw * scale,
                  "raw_s": raw})
            if probe:
                started.request_shutdown()
            else:
                reader.start()

        await edge.run(install_signals=False, on_ready=ready)
        return service

    service = asyncio.run(main())
    if probe:
        return
    recorder.uninstall()
    emit({"result": {
        "spans": recorder.export(),
        "missing": recorder.missing,
        "cache": service.cache.stats().as_dict(),
        "registry": service.registry.as_dict(),
        "rss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }})


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 connection sending ``POST /v1/query``."""

    def __init__(self, port: int, index: int, seed: int, keys) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.trace_prefix = f"{seed % (1 << 32):08x}{index + 1:08x}"
        self.counter = 0
        self.requests = []
        for plan, db in keys:
            body = json.dumps({"query": plan, "database": db}).encode()
            head = (
                "POST /v1/query HTTP/1.1\r\nHost: perfbench\r\n"
                f"Authorization: Bearer {TOKENS[index]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            ).encode()
            self.requests.append((head, body))

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def query(self, key: int):
        """Send one request; returns (trace id, start, end, status, body)."""
        self.counter += 1
        trace_id = f"{self.trace_prefix}{self.counter:016x}"
        head, body = self.requests[key]
        payload = (head + f"traceparent: 00-{trace_id}-"
                   f"{self.counter:016x}-01\r\n\r\n".encode() + body)
        reader = self.reader
        start = perf_counter()
        self.sock.sendall(payload)
        status_line = reader.readline()
        length = 0
        while True:
            line = reader.readline()
            if line in (b"\r\n", b""):
                break
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        data = reader.read(length)
        end = perf_counter()
        return trace_id, start, end, int(status_line[9:12]), data


def tuples_field(body: bytes) -> bytes:
    """The raw JSON of the response's ``tuples`` list (constants hold no
    brackets, so the first ``]]`` closes a non-empty list)."""
    start = body.find(b'"tuples":')
    if start < 0:
        return b""
    start += len(b'"tuples":')
    if body.startswith(b"[]", start):
        return b"[]"
    end = body.find(b"]]", start)
    return body[start:end + 2] if end >= 0 else b""


class Worker(threading.Thread):
    """One closed-loop client on one connection."""

    def __init__(self, connection, stream, key_index, phases, barrier):
        super().__init__(daemon=True)
        self.connection = connection
        self.stream = stream
        self.key_index = key_index
        self.phases = phases        # shared: (mode, count or seconds)
        self.barrier = barrier
        self.latency = []           # (phase, mode, seconds, answer id)
        self.answers = {}           # (key, tuples JSON bytes) -> answer id
        self.traced = []            # (trace id, start, end)
        self.error = None

    def one(self, phase: int, mode: str) -> None:
        key = self.key_index[next(self.stream)]
        trace_id, start, end, status, body = self.connection.query(key)
        if mode == "W":
            return
        answer = -1
        if status == 200 and b'"status":"ok"' in body:
            answer = self.answers.setdefault(
                (key, tuples_field(body)), len(self.answers))
        self.latency.append((phase, mode, end - start, answer))
        if mode == "T":
            self.traced.append((trace_id, start, end))

    def run(self) -> None:
        try:
            for phase, (mode, limit) in enumerate(self.phases):
                self.barrier.wait()
                if mode == "W":
                    for _ in range(limit):
                        self.one(phase, "W")
                else:
                    deadline = perf_counter() + limit
                    while perf_counter() < deadline:
                        self.one(phase, mode)
                self.barrier.wait()
        except Exception as exc:  # noqa: BLE001 - reported by drive()
            self.error = exc
            self.barrier.abort()


def drive(seed: int, seconds: float, trace: bool, tiny: bool,
          plan: str) -> dict:
    """Start the edge, run the warm-up and the timed blocks of ``plan``
    (``U`` untraced, ``T`` traced), calibrate the edge process between
    blocks, stop the edge."""
    import workloads as W

    sizes = (W.TINY_SIZES if tiny else W.FULL_SIZES)["edge_hot"]
    keys = W.edge_keys(seed, sizes)
    key_index = {key: i for i, key in enumerate(keys)}
    command = [sys.executable, os.path.abspath(__file__),
               "--seed", str(seed)]
    if tiny:
        command.append("--tiny")
    if trace:
        command.append("--trace")
    child = subprocess.Popen(command, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def ask(line: str) -> dict:
        child.stdin.write(line + "\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    connections = []
    try:
        ready = json.loads(child.stdout.readline())
        warmup = TINY_WARMUP_PER_CONNECTION if tiny else WARMUP_PER_CONNECTION
        phases = [("W", warmup)] + [(mode, seconds / len(plan))
                                    for mode in plan]
        barrier = threading.Barrier(CONNECTIONS + 1)
        workers = []
        for index in range(CONNECTIONS):
            connection = Connection(ready["port"], index, seed, keys)
            connections.append(connection)
            workers.append(Worker(
                connection, W.edge_stream(seed, sizes, index), key_index,
                phases, barrier,
            ))
        for worker in workers:
            worker.start()
        walls = []
        calibrations = []
        for mode, _ in phases:
            if mode != "W":
                if trace:
                    ask(f"trace {1 if mode == 'T' else 0}")
                if not calibrations:
                    calibrations.append(ask("calibrate")["cal_s"])
            began = perf_counter()
            try:
                barrier.wait()
                barrier.wait()
            except threading.BrokenBarrierError:
                raise next(worker.error for worker in workers
                           if worker.error is not None) from None
            if mode != "W":
                walls.append(perf_counter() - began)
                calibrations.append(ask("calibrate")["cal_s"])
        for worker in workers:
            worker.join(timeout=30)
            if worker.error is not None:
                raise worker.error
        for connection in connections:
            connection.close()
        connections = []
        child.stdin.write("stop\n")
        child.stdin.flush()
        result = None
        for line in child.stdout:
            payload = json.loads(line)
            if "result" in payload:
                result = payload["result"]
        child.wait(timeout=60)
        if child.returncode != 0 or result is None:
            raise RuntimeError(f"edge process failed ({child.returncode})")
    finally:
        for connection in connections:
            connection.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    result.update(
        setup_s=ready["setup_s"],
        setup_raw_s=ready["raw_s"],
        keys=keys,
        workers=workers,
        traced=[item for worker in workers for item in worker.traced],
        calibrations=calibrations,
        walls=walls,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    require_checkout()
    serve(args.seed, args.tiny, args.probe, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
