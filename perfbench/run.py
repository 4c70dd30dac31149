"""The repository benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The workloads are described in ``workloads.py`` and ``BENCHMARK.json``;
all are closed loops.  ``edge_hot`` drives a ``QueryEdge`` started in a
child process over two keep-alive connections; the other workloads call
``QueryService.execute`` / ``apply_update`` in this process with one
client.  An untimed warm-up prefix of each operation stream runs first.

The timed phase is cut into equal blocks.  Between blocks the process
under test times a fixed snippet (``calibrate.py``), and the run's times
are scaled to the reference host speed by the median snippet time; raw
figures stay in the run record.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1``
reports the per-layer metrics: blocks alternate untraced and traced
(U T T U ...), the per-layer numbers come from spans recorded around
each layer's public functions in the traced blocks (``spans.py``), and
``trace.overhead`` compares read latency between the two kinds of block.

Every answer is checked afterwards against ``oracle.py``: while timing
the benchmark records only a digest per response.  The last line of
standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

and the line before it is the run record (git sha, ``nproc``, Python
version, seed, sample count per metric, cache and stage counts over a
fixed window of operations, which repeat exactly at one seed on the
single-client workloads).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

perf_counter = time.perf_counter

#: Set-up runs per result: this process plus fresh-interpreter probes
#: (process-wide memos such as the compile cache would make a second
#: set-up in one process cheaper than a real one).
SETUP_PROBES = 2

#: The timed phase: this many equal blocks; a traced run alternates
#: untraced and traced blocks so drift cancels in ``trace.overhead``.
BLOCKS = 20
TRACE_PLAN = "UTTU" * (BLOCKS // 4)

#: Untimed warm-up operations and the fixed window (timed operations
#: counted from the end of the warm-up) over which cache and stage counts
#: are taken.
WARMUP = {"churn": 90, "recursive": 300, "sharded": 90}
COUNT_WINDOW = {"churn": 600, "recursive": 600, "sharded": 450}
TINY_WARMUP = 10
TINY_WINDOW = 30

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("http.self_us", "us"),
    ("http.parse_us", "us"),
    ("http.auth_us", "us"),
    ("http.price_us", "us"),
    ("http.admit_wait_us", "us"),
    ("http.hop_wait_us", "us"),
    ("http.render_us", "us"),
    ("service.execute_self_us", "us"),
    ("service.cache_get_us", "us"),
    ("service.cache_hit_rate", "ratio"),
    ("service.evictions_per_kop", "count/kop"),
    ("service.invalidated_per_update", "count"),
    ("service.update_self_us", "us"),
    ("service.digest_us", "us"),
    ("service.register_db_ms", "ms"),
    ("obs.flight_us", "us"),
    ("compile.lower_ms", "ms"),
    ("compile.exec_us", "us"),
    ("compile.ops_per_row", "ratio"),
    ("compile.fallback_share", "ratio"),
    ("compile.fixpoint_self_us", "us"),
    ("compile.stages_per_query", "count"),
    ("relalg.stage_us", "us"),
    ("relalg.new_row_share", "ratio"),
    ("db.encode_result_us", "us"),
    ("db.decode_us", "us"),
    ("db.encode_update_us", "us"),
    ("analysis.stats_us", "us"),
    ("analysis.certify_ms", "ms"),
    ("shard.partition_us", "us"),
    ("shard.dispatch_us", "us"),
    ("shard.merge_us", "us"),
    ("shard.distributed_share", "ratio"),
    ("shard.retry_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
)


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: {SRC}/repro not found; run from the root of a "
            f"checkout of the repository\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (R-7) of unsorted ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def top_mean(values, share: float = 0.01) -> float:
    """Mean of the slowest ``share`` of ``values`` (at least one)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    top = ordered[-max(1, int(len(ordered) * share)):]
    return sum(top) / len(top)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over ``src/`` (identifies the code when there is no git)."""
    hasher = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def counter_value(registry: dict, name: str, **labels) -> float:
    """Sum of a metric's values whose labels include ``labels``, from a
    ``MetricsRegistry.as_dict()`` snapshot."""
    total = 0.0
    for metric in registry["metrics"]:
        if metric["name"] != name:
            continue
        for item in metric["values"]:
            if all(item["labels"].get(k) == v for k, v in labels.items()):
                total += item["value"]
    return total


def registry_layer_values(registry: dict) -> dict:
    """The per-layer ratios the program's own counters give."""
    compiled = counter_value(registry, "repro_compile_requests_total",
                             path="compiled")
    fallback = counter_value(registry, "repro_compile_requests_total",
                             path="fallback")
    asked = counter_value(registry, "repro_shard_requests_total")
    local = counter_value(registry, "repro_shard_requests_total",
                          mode="local-only")
    sharded = asked - local
    retried = (counter_value(registry, "repro_shard_degraded_total")
               + counter_value(registry, "repro_shard_retries_total"))
    return {
        "compile.fallback_share": ratio(fallback, compiled + fallback),
        "shard.distributed_share": ratio(sharded, asked),
        "shard.retry_share": ratio(retried, sharded),
    }


# ---------------------------------------------------------------------------
# Set-up (the part ``setup_s`` times)
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, sizes):
    import workloads as W

    rows = W.build_inputs(workload, seed, sizes)
    databases = {name: W.to_database(rels) for name, rels in rows.items()}
    return rows, databases


def set_up_service(workload: str, databases):
    """Catalog registration, the service, and -- on ``sharded`` -- the
    shard pool, which spawns on the first sharded read."""
    import workloads as W
    from repro.service import QueryRequest, QueryService

    catalog = W.build_catalog(workload, databases)
    if workload != "sharded":
        return QueryService(catalog)
    service = QueryService(catalog, shard_workers=2)
    first = sorted(databases)[0]
    response = service.execute(
        QueryRequest(query="filter", database=first, shards=2)
    )
    if not response.ok:
        raise RuntimeError(f"shard pool start-up read failed: "
                           f"{response.error}")
    return service


def timed_setup(workload: str, databases):
    """(service, raw seconds, scaled seconds) of one set-up."""
    import calibrate

    before = calibrate.snippet_seconds()
    start = perf_counter()
    service = set_up_service(workload, databases)
    raw = perf_counter() - start
    return service, raw, raw * calibrate.factor(
        before, calibrate.snippet_seconds())


def run_setup_probes(workload: str, seed: int, tiny: bool) -> list:
    """Scaled set-up seconds from fresh interpreters, one at a time."""
    if workload == "edge_hot":
        command = [sys.executable, os.path.join(HERE, "edge.py"),
                   "--probe", "--seed", str(seed)]
    else:
        command = [sys.executable, os.path.abspath(__file__),
                   "--probe-setup", "--workload", workload,
                   "--seed", str(seed)]
    if tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({out.returncode}): {out.stderr}"
            )
        last = out.stdout.strip().splitlines()[-1]
        samples.append(float(json.loads(last)["setup_s"]))
    return samples


# ---------------------------------------------------------------------------
# The timed phase, in one shape for every workload
# ---------------------------------------------------------------------------

class Timed:
    """Operations of the timed phase: ``ops`` holds ``(block, kind,
    seconds, correct)`` and ``plan[b]`` is block ``b``'s mode (``U``
    untraced, ``T`` traced).  With concurrent clients ``walls[b]`` is
    block ``b``'s wall-clock length."""

    def __init__(self, plan: str, ops, calibrations, walls=None) -> None:
        import calibrate

        self.plan = plan
        self.ops = ops
        self.calibrations = calibrations
        self.walls = walls
        # One scale per run: the median of all calibrations moves less
        # than any single one (per-block scales added noise and did not
        # track a host that changes speed within a second).
        self.scale = calibrate.REFERENCE_S / statistics.median(calibrations)

    def latencies(self, mode: str, kind: str, *, scaled=True) -> list:
        scale = self.scale if scaled else 1.0
        return [seconds * scale
                for block, op_kind, seconds, _ in self.ops
                if op_kind == kind and self.plan[block] == mode]

    def ok_count(self, mode: str) -> int:
        return sum(1 for block, _, _, ok in self.ops
                   if ok and self.plan[block] == mode)

    def throughput(self, mode: str, *, scaled=True) -> float:
        """Correct operations per second of (scaled) timed wall clock.

        With one client the timed wall clock is the time spent inside
        the program's calls; the benchmark's own bookkeeping between
        calls is left out."""
        if self.walls is not None:
            wall = sum(self.walls[b] for b in range(len(self.plan))
                       if self.plan[b] == mode)
        else:
            wall = sum(seconds for block, _, seconds, _ in self.ops
                       if self.plan[block] == mode)
        return ratio(self.ok_count(mode),
                     wall * (self.scale if scaled else 1.0))


# ---------------------------------------------------------------------------
# The in-process closed loop (churn, recursive, sharded)
# ---------------------------------------------------------------------------

class OpLog:
    """Per-operation answers kept while timing: a digest, never the
    relation, plus the counts the window and per-layer ratios need."""

    def __init__(self) -> None:
        self.kind = []
        self.ok = []
        self.digest = []
        self.hit = []
        self.stages = []
        self.steps = []
        self.rows = []

    def __len__(self) -> int:
        return len(self.kind)


def run_in_process(workload: str, seed: int, seconds: float, trace: bool,
                   tiny: bool) -> dict:
    import calibrate
    import oracle
    import workloads as W
    from repro.db.relations import Relation
    from repro.service import QueryRequest

    sizes = (W.TINY_SIZES if tiny else W.FULL_SIZES)[workload]
    warmup = TINY_WARMUP if tiny else WARMUP[workload]
    window = TINY_WINDOW if tiny else COUNT_WINDOW[workload]
    shards = 2 if workload == "sharded" else None
    rows, databases = make_inputs(workload, seed, sizes)

    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    service, setup_raw, setup_scaled = timed_setup(workload, databases)
    if recorder is not None:
        # Off again before the first sharded read forks the pool.
        recorder.uninstall()

    def execute(op):
        """Run one operation; returns (seconds, ok, response)."""
        if op.kind == "read":
            request = QueryRequest(query=op.plan, database=op.db,
                                   shards=shards)
            began = perf_counter()
            response = service.execute(request)
            return perf_counter() - began, response.ok, response
        relation = Relation.from_tuples(2, op.rows)
        began = perf_counter()
        service.apply_update(op.db, {op.rel: relation})
        return perf_counter() - began, True, None

    stream = W.stream(workload, seed, sizes, rows)
    for op in W.take(stream, warmup):
        execute(op)

    log = OpLog()
    ops = []
    window_start = service.cache.stats()
    window_end = None
    plan = TRACE_PLAN if trace else "U" * BLOCKS
    block_s = seconds / len(plan)
    calibrations = [calibrate.snippet_seconds()]
    for block, mode in enumerate(plan):
        if recorder is not None:
            if mode == "T":
                recorder.install()
            else:
                recorder.uninstall()
        deadline = perf_counter() + block_s
        while perf_counter() < deadline:
            op = next(stream)
            seconds_taken, ok, response = execute(op)
            ops.append((block, op.kind, seconds_taken, ok))
            log.kind.append(op.kind)
            log.ok.append(ok)
            if response is not None and ok:
                log.digest.append(oracle.digest(response.relation.tuples))
                log.hit.append(response.cache_hit)
                log.stages.append(response.stages)
                log.steps.append(response.steps)
                log.rows.append(len(response.relation))
            else:
                for column in (log.digest, log.hit, log.stages, log.steps,
                               log.rows):
                    column.append(None)
            if len(log) == window:
                window_end = service.cache.stats()
        if recorder is not None:
            recorder.uninstall()
        calibrations.append(calibrate.snippet_seconds())
    rss = peak_rss_mb()
    registry_values = registry_layer_values(service.registry.as_dict())
    service.close()

    failed_ops = verify_in_process(workload, seed, sizes, rows, warmup, log)
    for index in failed_ops:
        block, kind, seconds_taken, _ = ops[index]
        ops[index] = (block, kind, seconds_taken, False)
    return {
        "setup_raw_s": setup_raw,
        "setup_s": setup_scaled,
        "timed": Timed(plan, ops, calibrations),
        "log": log,
        "rss": rss,
        "window": window_counts(log, window, window_start, window_end),
        "registry": registry_values,
        "spans": recorder.export() if recorder is not None else None,
        "missing": recorder.missing if recorder is not None else [],
        "failed_ops": failed_ops,
    }


def verify_in_process(workload, seed, sizes, rows, warmup, log) -> list:
    """Replay the seeded stream through the oracle; returns the indices
    of timed operations whose answer the oracle rejects."""
    import oracle
    import workloads as W

    stream = W.stream(workload, seed, sizes, rows)
    state = {db: {rel: set(tuples) for rel, tuples in rels.items()}
             for db, rels in rows.items()}
    versions = {db: 0 for db in rows}
    expected = {}
    failed = []
    for index in range(-warmup, len(log)):
        op = next(stream)
        if op.kind == "update":
            state[op.db][op.rel].discard(op.deleted)
            state[op.db][op.rel].add(op.inserted)
            versions[op.db] += 1
            if index >= 0 and not log.ok[index]:
                failed.append(index)
            continue
        if index < 0:
            continue
        key = (op.plan, op.db, versions[op.db])
        if key not in expected:
            if workload == "recursive":
                answer = oracle.fixpoint_answer(op.plan, rows[op.db])
            else:
                answer = oracle.term_answer(
                    op.plan, state[op.db]["R"], state[op.db]["S"],
                    W.FILTER_CONSTANT,
                )
            expected[key] = oracle.digest(answer)
        if not log.ok[index] or log.digest[index] != expected[key]:
            failed.append(index)
    return failed


def window_counts(log, window, start, end) -> dict:
    """Cache and stage counts over the first ``window`` timed operations."""
    complete = end is not None
    size = window if complete else len(log)
    kinds = log.kind[:size]
    misses = [i for i in range(size)
              if kinds[i] == "read" and log.ok[i] and not log.hit[i]]
    term_misses = [i for i in misses if log.stages[i] is None]
    fix_misses = [i for i in misses if log.stages[i] is not None]
    counts = {
        "complete": complete,
        "operations": size,
        "reads": kinds.count("read"),
        "updates": kinds.count("update"),
        "stages": sum(log.stages[i] for i in fix_misses),
        "fixpoint_misses": len(fix_misses),
        "term_misses": len(term_misses),
        "term_miss_steps": sum(log.steps[i] or 0 for i in term_misses),
        "term_miss_rows": sum(log.rows[i] for i in term_misses),
    }
    if end is not None:
        for field in ("hits", "misses", "evictions", "invalidations"):
            counts[field] = getattr(end, field) - getattr(start, field)
    return counts


# ---------------------------------------------------------------------------
# The edge (edge_hot)
# ---------------------------------------------------------------------------

def verify_edge(seed: int, tiny: bool, keys, answers: dict) -> dict:
    """``{answer id: correct}`` for one client's distinct answers
    (``answers`` maps (key index, raw ``tuples`` JSON) to an id)."""
    import oracle
    import workloads as W

    sizes = (W.TINY_SIZES if tiny else W.FULL_SIZES)["edge_hot"]
    rows = W.build_inputs("edge_hot", seed, sizes)
    verdicts = {}
    for (key, raw), answer in answers.items():
        plan, db = keys[key]
        expected = oracle.term_answer(
            plan, rows[db]["R"], rows[db]["S"], W.FILTER_CONSTANT)
        try:
            got = {tuple(row) for row in json.loads(raw)}
        except ValueError:
            got = None
        verdicts[answer] = got == expected
    return verdicts


def http_metrics(table, traced, scale: float):
    """Per-request means of the edge's spans, joined to the client's
    request times by trace id (``traced``: (trace id, start, end))."""
    by_trace = table.by_trace()
    sums = dict.fromkeys(
        ("self", "parse", "auth", "price", "admit", "hop", "render"), 0.0)
    joined = 0
    for trace_id, start, end in traced:
        indices = by_trace.get(trace_id)
        if not indices:
            continue
        joined += 1
        spent = {}
        admitted = executed = None
        for i in indices:
            name, began, ended, parent = table.rows[i][:4]
            if parent >= 0:
                continue  # only the request's top-level spans
            spent[name] = spent.get(name, 0.0) + (ended - began)
            if name == "http.admit":
                admitted = ended
            elif name == "service.execute":
                executed = began
        hop = (executed - admitted
               if admitted is not None and executed is not None else 0.0)
        sums["parse"] += spent.get("http.parse", 0.0)
        sums["auth"] += spent.get("http.auth", 0.0)
        # The edge prices before admission: catalog lookups outside
        # QueryService.execute plus the contract, stats and fuel calls.
        sums["price"] += (spent.get("http.price", 0.0)
                          + spent.get("catalog.get", 0.0))
        sums["admit"] += spent.get("http.admit", 0.0)
        sums["hop"] += hop
        sums["render"] += spent.get("http.render", 0.0)
        sums["self"] += (end - start) - sum(spent.values()) - hop
    us = 1e6 * scale
    return {
        "http.self_us": ratio(sums["self"], joined) * us,
        "http.parse_us": ratio(sums["parse"], joined) * us,
        "http.auth_us": ratio(sums["auth"], joined) * us,
        "http.price_us": ratio(sums["price"], joined) * us,
        "http.admit_wait_us": ratio(sums["admit"], joined) * us,
        "http.hop_wait_us": ratio(sums["hop"], joined) * us,
        "http.render_us": ratio(sums["render"], joined) * us,
    }, joined


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(table, window: dict, registry: dict, timed: Timed,
                  http: dict) -> dict:
    scale = timed.scale
    us, ms = 1e6 * scale, 1e3 * scale
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(http)
    metrics.update(registry)
    metrics["trace.overhead"] = ratio(
        quantile(timed.latencies("T", "read"), 0.5),
        quantile(timed.latencies("U", "read"), 0.5))
    updates = timed.latencies("U", "update")
    metrics["update_p50_ms"] = quantile(updates, 0.50) * 1e3
    metrics["update_p99_ms"] = quantile(updates, 0.99) * 1e3
    if "hits" in window:
        metrics["service.cache_hit_rate"] = ratio(
            window["hits"], window["hits"] + window["misses"])
        metrics["service.evictions_per_kop"] = 1000.0 * ratio(
            window["evictions"], window["reads"])
        metrics["service.invalidated_per_update"] = ratio(
            window["invalidations"], window["updates"])
    if "term_miss_rows" in window:
        metrics["compile.ops_per_row"] = ratio(
            window["term_miss_steps"], window["term_miss_rows"])
        metrics["compile.stages_per_query"] = ratio(
            window["stages"], window["fixpoint_misses"])
    update = {"service.update"}
    execute = {"service.execute"}
    mean, mean_self, select = table.mean_duration, table.mean_self, table.select
    metrics["service.execute_self_us"] = mean_self(
        select("service.execute"), us)
    metrics["service.cache_get_us"] = mean(select("service.cache_get"), us)
    metrics["service.update_self_us"] = mean_self(
        select("service.update"), us)
    metrics["service.digest_us"] = mean(
        select("service.digest", under=update), us)
    metrics["service.register_db_ms"] = mean(
        select("service.register_db", not_under=update), ms)
    metrics["obs.flight_us"] = mean(select("obs.flight"), us)
    metrics["compile.lower_ms"] = mean(
        select("compile.lower", not_under=execute), ms)
    metrics["compile.exec_us"] = mean(select("compile.exec"), us)
    metrics["compile.fixpoint_self_us"] = mean_self(
        select("compile.fixpoint"), us)
    stages = select("relalg.stage", under={"compile.fixpoint"})
    metrics["relalg.stage_us"] = mean(stages, us)
    metrics["relalg.new_row_share"] = ratio(
        sum(table.rows[i][5][0] for i in stages),
        sum(table.rows[i][5][1] for i in stages))
    metrics["db.encode_result_us"] = mean(
        select("db.encode_result", under=execute), us)
    metrics["db.decode_us"] = mean(select("db.decode"), us)
    metrics["db.encode_update_us"] = mean(select("db.encode_update"), us)
    metrics["analysis.stats_us"] = mean(
        select("analysis.stats", under=update), us)
    metrics["analysis.certify_ms"] = mean(select("analysis.certify"), ms)
    metrics["shard.partition_us"] = mean(select("shard.partition"), us)
    metrics["shard.dispatch_us"] = mean(select("shard.dispatch"), us)
    metrics["shard.merge_us"] = mean(select("shard.merge"), us)
    return metrics


def end_to_end_metrics(timed: Timed, setup_samples, rss: float) -> dict:
    reads = timed.latencies("U", "read")
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops": timed.throughput("U"),
        "latency_p50_ms": quantile(reads, 0.50) * 1e3,
        "latency_p95_ms": quantile(reads, 0.95) * 1e3,
        "peak_rss_mb": rss,
    }


def timed_record(timed: Timed) -> dict:
    """Update latencies, raw (unscaled) figures and the calibration, for
    the run record."""
    reads = timed.latencies("U", "read")
    raw_reads = timed.latencies("U", "read", scaled=False)
    updates = timed.latencies("U", "update")
    return {
        "latency_p99_ms": quantile(reads, 0.99) * 1e3,
        "latency_top1pct_ms": top_mean(reads) * 1e3,
        "update_p50_ms": quantile(updates, 0.50) * 1e3,
        "update_p99_ms": quantile(updates, 0.99) * 1e3,
        "raw_throughput_ops": timed.throughput("U", scaled=False),
        "raw_latency_p50_ms": quantile(raw_reads, 0.50) * 1e3,
        "raw_latency_top1pct_ms": top_mean(raw_reads) * 1e3,
        "calibration_ms": [c * 1e3 for c in timed.calibrations],
    }


def sample_counts(timed: Timed, setup_samples) -> dict:
    reads = len(timed.latencies("U", "read"))
    updates = len(timed.latencies("U", "update"))
    return {
        "setup_s": len(setup_samples),
        "throughput_ops": timed.ok_count("U"),
        "latency_p50_ms": reads,
        "latency_p95_ms": reads,
        "latency_p99_ms": reads,
        "latency_top1pct_ms": reads,
        "peak_rss_mb": 1,
        "update_p50_ms": updates,
        "update_p99_ms": updates,
        "trace.overhead": len(timed.latencies("T", "read")),
    }


def span_counts(table) -> dict:
    counts: dict = {}
    for row in table.rows:
        counts[row[0]] = counts.get(row[0], 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def summarize(workload, seed, seconds, trace, tiny) -> tuple:
    """(metrics, samples, record, attempted, failed) of one run."""
    from spans import SpanTable

    setup_samples = [] if trace else run_setup_probes(workload, seed, tiny)
    if workload == "edge_hot":
        import edge

        plan = TRACE_PLAN if trace else "U" * BLOCKS
        result = edge.drive(seed, seconds, trace, tiny, plan)
        ops = []
        for worker in result["workers"]:
            correct = verify_edge(seed, tiny, result["keys"], worker.answers)
            # A non-200 status or a non-ok body has no answer id (-1).
            ops.extend((phase - 1, "read", seconds_taken,
                        answer >= 0 and correct[answer])
                       for phase, _, seconds_taken, answer in worker.latency)
        failed = sum(1 for op in ops if not op[3])
        result["timed"] = Timed(plan, ops, result["calibrations"],
                                result["walls"])
        result["registry"] = registry_layer_values(result["registry"])
        cache = result["cache"]
        window = {key: cache[key] for key in
                  ("hits", "misses", "evictions", "invalidations")}
        window.update(reads=cache["hits"] + cache["misses"], updates=0)
    else:
        result = run_in_process(workload, seed, seconds, trace, tiny)
        failed = len(result["failed_ops"])
        window = result["window"]
    timed = result["timed"]
    setup_samples.append(result["setup_s"])
    samples = sample_counts(timed, setup_samples)
    record = timed_record(timed)
    record.update(window=window, setup_samples_s=setup_samples,
                  setup_raw_s=result["setup_raw_s"])
    if trace:
        table = SpanTable(result["spans"])
        http = {}
        if workload == "edge_hot":
            http, samples["http"] = http_metrics(
                table, result["traced"], timed.scale)
        metrics = layer_metrics(table, window, result["registry"], timed,
                                http)
        record.update(span_counts=span_counts(table),
                      missing_wrap_points=result["missing"])
        record["trace.overhead"] = metrics["trace.overhead"]
    else:
        metrics = end_to_end_metrics(timed, setup_samples, result["rss"])
    return metrics, samples, record, len(timed.ops), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-check tests)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_checkout()
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads as W

    workload = W.check_workload(args.workload)
    if args.probe_setup:
        sizes = (W.TINY_SIZES if args.tiny else W.FULL_SIZES)[workload]
        _, databases = make_inputs(workload, args.seed, sizes)
        service, raw, scaled = timed_setup(workload, databases)
        service.close()
        print(json.dumps({"setup_s": scaled, "raw_s": raw}))
        return 0

    trace = bool(args.trace)
    metrics, samples, record, attempted, failed = summarize(
        workload, args.seed, args.seconds, trace, args.tiny)
    names = PER_LAYER if trace else END_TO_END
    record.update({
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
    })
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
