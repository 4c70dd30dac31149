"""The persistent ``multiprocessing`` worker pool for shard tasks.

One worker = one long-lived process holding a *warm snapshot cache*: shard
databases are shipped once, keyed by digest, and later tasks reference
them by digest only.  The cache is a :class:`repro.lru.BoundedLRU` of
the :data:`SNAPSHOT_CACHE_SIZE` most recently used snapshots (every
update ships new digests, so an unbounded cache would grow with the
update stream).  The coordinator mirrors each worker's cache with a
``BoundedLRU`` of the same bound, touched in the same order, so both
evict the same digest; it re-ships a snapshot the worker has evicted.
A task naming a snapshot the worker does not hold replies with
``error_kind`` ``"snapshot"``, and the coordinator records a digest
only when the worker resolved it, so the mirror stays exact.
Snapshots are plain relations: a worker encodes a relation
(Definition 3.1) only when a task reduces over it — a reduction engine,
``"ra"``'s per-shard NBE fallback, or a ``"fixpoint"`` stage — and then
once per snapshot.

Two task kinds evaluate, through one body: resolve the snapshot, then
run by the row the engine table
(:data:`repro.service.engines.ENGINE_TABLE`) gives the task's engine.
A ``term`` task answers a term plan over its snapshot by the row's
``term``.  An ``ra`` task is one fixpoint stage of a sharded Theorem 5.2
loop (the coordinator runs the same loop a request runs in process):
the step over the snapshot, with the broadcast stage bound to
``__FIX__``, by the row's ``stage`` — for ``"ra"`` the set stage
(counting set ops), for ``"fixpoint"`` the NBE-materialized stage
(counting reduction steps).

Reliability model:

* **Health checks** — :meth:`ShardWorkerPool.ping` round-trips every
  worker and respawns any that died idle.
* **Crash detection** — a worker dying mid-task surfaces as ``EOFError``
  / ``BrokenPipeError`` on its pipe; the coordinator respawns the worker
  (its snapshot cache restarts cold) and retries the task with
  exponential backoff, at most ``max_retries`` times.
* **Per-task timeouts** — a task overrunning its deadline gets its worker
  killed (the budgeted evaluation would finish eventually, but the
  deadline wins) and counts as a crash for retry purposes.
* **Graceful degradation** — when retries are exhausted the task runs
  in-process via :func:`execute_task`, so a dying pool degrades to the
  single-process runtime instead of erroring the batch.

Tasks and replies are plain picklable dicts; :func:`execute_task` is the
single execution semantics shared by workers and the degraded path.
``{"kind": "crash"}`` makes a worker ``os._exit`` — the deterministic
crash injection the recovery tests use.

**Trace propagation.**  A task may carry a ``"trace"`` dict
(``{"trace_id", "parent_id", "shard"}``) — the coordinator's trace
context crossing the pipe.  The worker then records its own spans
(``worker.task`` → ``worker.snapshot`` / ``worker.evaluate``) with a
:class:`~repro.obs.tracing.SpanRecorder` and ships them back in the
reply's ``"spans"`` list, where the coordinator grafts them into its
tracer.  Workers that crash take their recorded spans with them; the
*retry*'s spans (plus a coordinator-synthesized ``shard.respawn``
span) represent the recovery in the merged tree.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.db.relations import Database, Relation
from repro.errors import FuelExhausted, ReproError
from repro.lru import BoundedLRU
from repro.obs.tracing import NOOP_SPAN, SpanRecorder

#: Events reported to the pool's observer callback.
EVENT_TASK = "task"
EVENT_RETRY = "retry"
EVENT_CRASH = "crash"
EVENT_TIMEOUT = "timeout"
EVENT_DEGRADED = "degraded"
EVENT_RESPAWN = "respawn"

#: Snapshots each worker keeps warm, least recently used evicted first.
SNAPSHOT_CACHE_SIZE = 16


class WorkerCrash(ReproError):
    """A worker died (or timed out) while running a task."""


class WorkerTimeout(WorkerCrash):
    """A worker missed its per-task deadline (killed and respawned)."""


class SnapshotMiss(ReproError):
    """A task named a database snapshot the worker does not hold."""


# ---------------------------------------------------------------------------
# Task execution (worker side and the degraded in-process path)
# ---------------------------------------------------------------------------

#: Per-process task counter: keeps worker span ids unique when one
#: process serves several shards of the same trace.
_TASK_IDS = itertools.count(1)


class _NoopRecorder:
    """Recorder stand-in for untraced tasks: zero allocation per span."""

    __slots__ = ()

    def span(self, name: str, **attrs):
        return NOOP_SPAN

    def spans(self) -> List[dict]:
        return []


_NOOP_RECORDER = _NoopRecorder()


def _task_recorder(task: dict):
    """A span recorder bound to the task's trace context (or a no-op)."""
    trace = task.get("trace")
    if not trace:
        return _NOOP_RECORDER
    prefix = trace.get("prefix") or f"w{os.getpid()}t{next(_TASK_IDS)}"
    return SpanRecorder(
        str(trace.get("trace_id") or ""),
        trace.get("parent_id"),
        prefix=str(prefix),
    )


def _resolve_database(task: dict, cache: BoundedLRU) -> Database:
    digest = task.get("db_digest")
    database = task.get("database")
    if database is None:
        database = cache.get(digest)
        if database is None:
            raise SnapshotMiss(
                f"task references unknown database snapshot {digest!r}"
            )
    if digest is not None:
        cache.put(digest, database)
    return database


def _evaluate(task: dict, database: Database, engine: str):
    """Run the task by the row of its engine: a ``term`` task by the
    row's ``term`` (``"ra"`` degrades to NBE per shard inside it), an
    ``ra`` task by the row's ``stage``."""
    from repro.db.decode import decode_relation
    from repro.service.engines import validate_engine

    row = validate_engine(engine)
    max_depth = task.get("max_depth", 600_000)
    if task["kind"] == "term" and row.term is not None:
        result = row.term(
            task["term"], database, fuel=task.get("fuel"),
            max_depth=max_depth, observer=None,
            output_arity=task.get("arity"),
        )
        decoded = result.decoded or decode_relation(
            result.normal_form, task.get("arity")
        )
        return decoded.relation, result.steps, result.fallback is not None
    if task["kind"] == "ra" and row.stage is not None:
        relation, steps = row.stage(
            task["expr"],
            database,
            Relation.from_tuples(task["fix_arity"], task["fix_tuples"]),
            max_depth,
            None,
        )
        return relation, steps, False
    raise ReproError(f"engine {engine!r} runs no {task['kind']!r} task")


def execute_task(task: dict, cache: Optional[BoundedLRU] = None) -> dict:
    """Execute one shard task; never raises — errors become replies.

    Kinds: ``ping`` (health check), ``db`` (preload a snapshot), ``term``
    (evaluate a term plan over a snapshot), ``ra`` (one fixpoint stage:
    the RA step over a snapshot with the broadcast stage bound to
    ``__FIX__``, by the stage of the task's engine).  A task that names
    no engine runs on ``"nbe"``.  A task naming a snapshot the worker
    does not hold fails with ``error_kind`` ``"snapshot"`` and leaves
    the snapshot cache untouched; any other reply to a task that names a
    snapshot means the worker resolved it.
    """
    if cache is None:
        cache = BoundedLRU(SNAPSHOT_CACHE_SIZE)
    kind = task.get("kind")
    recorder = _NOOP_RECORDER
    try:
        if kind == "ping":
            return {"ok": True, "kind": "pong", "pid": os.getpid()}
        if kind == "db":
            _resolve_database(task, cache)
            return {"ok": True, "kind": "db"}
        if kind not in ("term", "ra"):
            return {"ok": False, "error_kind": "error",
                    "error": f"unknown task kind {kind!r}"}
        engine = task.get("engine", "nbe")
        recorder = _task_recorder(task)
        with recorder.span(
            "worker.task", kind=kind,
            shard=(task.get("trace") or {}).get("shard"), pid=os.getpid(),
        ):
            with recorder.span(
                "worker.snapshot",
                warm=(
                    task.get("database") is None
                    and task.get("db_digest") in cache
                ),
            ):
                database = _resolve_database(task, cache)
            with recorder.span("worker.evaluate", engine=engine) as span:
                relation, steps, fell_back = _evaluate(
                    task, database, engine
                )
                if fell_back:
                    span.set_attr("compile_fallback", True)
                span.set_attr("steps", steps)
        reply = {
            "ok": True,
            "tuples": relation.tuples,
            "arity": relation.arity,
            "steps": steps,
        }
    except SnapshotMiss as exc:
        reply = {"ok": False, "error_kind": "snapshot", "error": str(exc)}
    except FuelExhausted as exc:
        reply = {
            "ok": False,
            "error_kind": "fuel",
            "steps": exc.steps,
            "error": str(exc),
        }
    except Exception as exc:  # noqa: BLE001 - replies, never raises
        reply = {
            "ok": False,
            "error_kind": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    spans = recorder.spans()
    if spans:
        reply["spans"] = spans
    return reply


def _worker_main(conn) -> None:
    """The worker process loop: recv task, execute, send reply."""
    cache: BoundedLRU[str, Database] = BoundedLRU(SNAPSHOT_CACHE_SIZE)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        kind = task.get("kind")
        if kind == "shutdown":
            return
        if kind == "crash":
            # Deterministic crash injection for the recovery tests: die
            # without replying, exactly like a segfault would.
            os._exit(task.get("exitcode", 3))
        conn.send(execute_task(task, cache))


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

class _Worker:
    __slots__ = ("index", "process", "conn", "seen", "respawns")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        # Mirrors the worker's snapshot cache: the same digests, touched
        # in the same order (one pipe, one task at a time), same bound.
        self.seen: BoundedLRU[str, bool] = BoundedLRU(SNAPSHOT_CACHE_SIZE)
        self.respawns = 0


class ShardWorkerPool:
    """A fixed-size pool of persistent shard workers.

    ``observer`` (if given) is called with one event name per notable
    occurrence (``task`` / ``retry`` / ``crash`` / ``timeout`` /
    ``degraded`` / ``respawn``) — the service runtime wires it to the
    ``repro_shard_*`` metrics.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        observer: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"pool needs >= 1 worker, got {workers}")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._observer = observer
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[_Worker] = []
        # One mutex per worker *slot*, held across every send/recv
        # roundtrip (and the respawn that follows a crash).  The pool is
        # shared by concurrent requests, so without it two threads could
        # interleave sends on one pipe and steal each other's replies.
        # Locks are keyed by index and survive respawns.
        self._worker_locks: List[threading.Lock] = []
        for index in range(workers):
            self._workers.append(self._spawn(index))
            self._worker_locks.append(threading.Lock())

    # -- lifecycle -----------------------------------------------------------

    def _notify(self, event: str) -> None:
        if self._observer is not None:
            self._observer(event)

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def _respawn(self, index: int) -> _Worker:
        # Caller holds the worker's slot lock; a pool that closed while
        # this task was in flight must not spawn a zombie replacement.
        if self._closed:
            raise ReproError("the shard worker pool is closed")
        old = self._workers[index]
        try:
            old.conn.close()
        except OSError:
            pass
        if old.process.is_alive():
            old.process.kill()
        old.process.join(timeout=5)
        fresh = self._spawn(index)
        fresh.respawns = old.respawns + 1
        self._workers[index] = fresh
        self._notify(EVENT_RESPAWN)
        return fresh

    @property
    def size(self) -> int:
        return len(self._workers)

    def ensure_workers(self, count: int) -> None:
        """Grow the pool to at least ``count`` workers."""
        with self._lock:
            if self._closed:
                raise ReproError("the shard worker pool is closed")
            while len(self._workers) < count:
                self._workers.append(self._spawn(len(self._workers)))
                self._worker_locks.append(threading.Lock())

    def respawn_counts(self) -> List[int]:
        return [w.respawns for w in self._workers]

    def close(self) -> None:
        """Shut every worker down (idempotent).

        Close does not wait for in-flight tasks: a slot whose lock cannot
        be grabbed promptly is busy mid-roundtrip, so its shutdown message
        is skipped (sending would tear the pipe) and the join-timeout/kill
        below reaps the worker instead.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for index, worker in enumerate(self._workers):
            slot = self._worker_locks[index]
            acquired = slot.acquire(timeout=0.25)
            try:
                if acquired:
                    try:
                        worker.conn.send({"kind": "shutdown"})
                    except (OSError, ValueError, BrokenPipeError):
                        pass
            finally:
                if acquired:
                    slot.release()
        for worker in self._workers:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- health --------------------------------------------------------------

    def ping(self, timeout_s: float = 5.0) -> List[bool]:
        """Round-trip every worker; dead workers are respawned and
        reported ``False`` for this check."""
        health: List[bool] = []
        for index in range(len(self._workers)):
            with self._worker_locks[index]:
                try:
                    reply = self._roundtrip(
                        index, {"kind": "ping"}, timeout_s
                    )
                    health.append(bool(reply.get("ok")))
                except WorkerCrash:
                    self._respawn(index)
                    health.append(False)
        return health

    def inject_crash(self, index: int, *, exitcode: int = 3) -> None:
        """Make worker ``index`` exit without replying (test hook)."""
        with self._worker_locks[index]:
            worker = self._workers[index]
            try:
                worker.conn.send({"kind": "crash", "exitcode": exitcode})
            except (OSError, ValueError, BrokenPipeError):
                return
            worker.process.join(timeout=5)

    # -- task execution ------------------------------------------------------

    def _roundtrip(self, index: int, payload: dict, timeout_s) -> dict:
        """One send/recv pair on worker ``index``'s pipe.

        The caller must hold ``self._worker_locks[index]``: the pipe is a
        plain duplex channel with no request routing, so the slot lock is
        what guarantees a reply goes back to the thread that sent the
        matching task.
        """
        worker = self._workers[index]
        try:
            worker.conn.send(payload)
            if timeout_s is not None:
                if not worker.conn.poll(timeout_s):
                    raise WorkerTimeout(
                        f"worker {index} missed its {timeout_s}s deadline"
                    )
            return worker.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerCrash(f"worker {index} died: {exc}") from exc

    def run_task(
        self,
        task: dict,
        *,
        worker_index: int = 0,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Run one task with crash recovery; degrades in-process on
        exhausted retries.  The reply carries a ``_meta`` dict with the
        worker index, retry count, and whether it degraded."""
        if self._closed:
            raise ReproError("the shard worker pool is closed")
        index = worker_index % len(self._workers)
        slot = self._worker_locks[index]
        self._notify(EVENT_TASK)
        retries = 0
        while retries <= self.max_retries:
            # The slot lock covers the whole attempt — worker lookup, the
            # snapshot-cache check, the pipe roundtrip, and the respawn on
            # crash — so concurrent requests sharing the pool can never
            # interleave on one pipe or double-respawn a worker.  The
            # backoff sleep happens outside it.
            crashed = False
            with slot:
                worker = self._workers[index]
                payload = dict(task)
                digest = payload.get("db_digest")
                if digest is not None and digest in worker.seen:
                    payload.pop("database", None)
                try:
                    reply = self._roundtrip(index, payload, timeout_s)
                except WorkerCrash as crash:
                    timed_out = isinstance(crash, WorkerTimeout)
                    self._notify(
                        EVENT_TIMEOUT if timed_out else EVENT_CRASH
                    )
                    self._respawn(index)
                    crashed = True
                else:
                    # The worker touched its cache for the digest unless
                    # the snapshot missed, so the mirror follows suit.
                    if (
                        digest is not None
                        and reply.get("error_kind") != "snapshot"
                    ):
                        worker.seen.put(digest, True)
            if crashed:
                retries += 1
                if retries <= self.max_retries:
                    self._notify(EVENT_RETRY)
                    time.sleep(self.backoff_s * (2 ** (retries - 1)))
                continue
            reply["_meta"] = {
                "worker": index,
                "retries": retries,
                "degraded": False,
            }
            return reply
        # Retries exhausted: degrade to in-process evaluation (the task's
        # own fuel/depth budgets still bound it).
        self._notify(EVENT_DEGRADED)
        degraded_task = dict(task)
        trace = degraded_task.get("trace")
        if trace:
            # In-process spans get a distinct prefix so the merged tree
            # shows where the degraded evaluation actually ran.
            degraded_task["trace"] = {
                **trace,
                "prefix": f"local{os.getpid()}t{next(_TASK_IDS)}",
            }
        reply = execute_task(degraded_task)
        reply["_meta"] = {
            "worker": None,
            "retries": retries,
            "degraded": True,
        }
        return reply

    def _run_task_reply(
        self,
        task: dict,
        worker_index: int,
        timeout_s: Optional[float],
    ) -> dict:
        """``run_task`` with the never-raises batch contract: coordinator
        failures (e.g. ``close()`` racing an in-flight batch) become error
        replies so batch positions always stay aligned with their tasks."""
        try:
            return self.run_task(
                task, worker_index=worker_index, timeout_s=timeout_s
            )
        except Exception as exc:  # noqa: BLE001 - replies, never raises
            return {
                "ok": False,
                "error_kind": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "_meta": {
                    "worker": worker_index,
                    "retries": 0,
                    "degraded": False,
                },
            }

    def run_batch(
        self,
        tasks: List[dict],
        *,
        timeout_s: Optional[float] = None,
    ) -> List[dict]:
        """Run ``tasks`` concurrently (task ``i`` starts on worker ``i mod
        size``); exactly one reply per task, in task order, never an
        exception — failures (including coordinator-side ones) are error
        replies at their task's position."""
        if not tasks:
            return []
        if len(tasks) == 1:
            return [self._run_task_reply(tasks[0], 0, timeout_s)]
        size = len(self._workers)
        replies: List[Optional[dict]] = [None] * len(tasks)
        # Each worker's pipe is serial, so tasks assigned to the same
        # worker run back-to-back on one coordinator thread per worker.
        by_worker: Dict[int, List[int]] = {}
        for position in range(len(tasks)):
            by_worker.setdefault(position % size, []).append(position)

        def drive(worker_index: int, positions: List[int]) -> None:
            for position in positions:
                replies[position] = self._run_task_reply(
                    tasks[position], worker_index, timeout_s
                )

        threads = [
            threading.Thread(
                target=drive, args=(worker_index, positions), daemon=True
            )
            for worker_index, positions in by_worker.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [
            reply
            if reply is not None
            else {
                "ok": False,
                "error_kind": "error",
                "error": "shard task produced no reply",
                "_meta": {"worker": None, "retries": 0, "degraded": False},
            }
            for reply in replies
        ]
