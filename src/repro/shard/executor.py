"""The shard coordinator: partition → fan out → canonical merge.

This is the piece the service runtime calls when a request carries a
:class:`~repro.shard.policy.ShardPolicy`.  It owns no state — the pool,
tracer and metrics belong to the service — and returns a
:class:`ShardOutcome` with a per-shard profile carrying each shard's
observed steps against its own Theorem 5.1 bound.

The service's binding decides which of the two entry points runs
(:func:`repro.service.engines.runs_staged`): a plan that runs as a whole
term fans out once, a fixpoint spec that runs stage by stage fans out
once per stage.  A fixpoint plan whose tower a reduction engine reduces
whole never gets here: it is local-only (TLI018) and runs in process.

* :func:`execute_sharded_term` — one task per shard, single round; the
  relation comes back in canonical (the merge combiner's sorted) order.
* :func:`execute_sharded_fixpoint` — hands the one Theorem 5.2 stage
  loop (:func:`repro.compile.fixpoint.run_fixpoint_query_compiled`) a
  fan-out stage: each stage runs on every shard, by the request's
  engine's stage, with the current stage relation broadcast as
  ``__FIX__``, and the shard outputs are merged (the stage barrier is
  what makes broadcast of the fixpoint variable sound).  The loop checks
  convergence globally and returns the relation in the unsharded
  engines' ``D^k`` order.

Both fan out through :func:`_fan_out`: run the batch, graft the worker
spans, check every reply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cost import CostProfile, DatabaseStats
from repro.analysis.provenance import ProvenanceFacts
from repro.compile.fixpoint import run_fixpoint_query_compiled
from repro.db.relations import Database, Relation
from repro.errors import FuelExhausted, ReproError
from repro.lam.terms import Term
from repro.obs.profiler import bound_ratio
from repro.obs.tracing import Span, Tracer
from repro.queries.fixpoint import FixpointQuery
from repro.shard.partition import merge_relations, partition_database
from repro.shard.planner import DistributionPlan, shard_fuel
from repro.shard.policy import ShardPolicy
from repro.shard.pool import ShardWorkerPool


@dataclass
class ShardOutcome:
    """The merged result of one sharded evaluation."""

    relation: Relation
    steps: int
    stages: Optional[int]
    partitioned: Tuple[str, ...]
    shard_rows: List[dict] = field(default_factory=list)

    @property
    def degraded_tasks(self) -> int:
        return sum(1 for row in self.shard_rows if row.get("degraded"))

    def profile_dict(self, policy: ShardPolicy, plan: DistributionPlan) -> dict:
        return {
            "mode": plan.mode,
            "code": plan.code,
            "shards": policy.shards,
            "partitioner": policy.partitioner,
            "partitioned": list(self.partitioned),
            "degraded_tasks": self.degraded_tasks,
            "rows": self.shard_rows,
        }


def _snapshot_key(
    db_digest: str,
    policy: ShardPolicy,
    partitioned: Sequence[str],
    index: int,
) -> str:
    # Deterministic function of (source digest, split spec, shard index):
    # partitioning is deterministic, so equal keys imply equal snapshots
    # and the worker-side cache can be trusted across requests.
    return (
        f"{db_digest}#k{policy.shards}:{policy.partitioner}"
        f":{','.join(partitioned)}:{index}"
    )


def _partition(
    database: Database,
    db_digest: str,
    policy: ShardPolicy,
    plan: DistributionPlan,
    tracer: Tracer,
) -> Tuple[Tuple[Database, ...], Tuple[str, ...], List[str]]:
    with tracer.span(
        "shard.partition",
        shards=policy.shards,
        partitioner=policy.partitioner,
        mode=plan.mode,
    ) as span:
        partitioned = plan.choose_partition(database)
        shards = partition_database(
            database,
            policy.shards,
            partitioner=policy.partitioner,
            partition_names=partitioned,
        )
        span.set_attr("partitioned", ",".join(partitioned))
        keys = [
            _snapshot_key(db_digest, policy, partitioned, index)
            for index in range(policy.shards)
        ]
    return shards, partitioned, keys


def _shard_row(
    index: int,
    shard: Database,
    partitioned: Sequence[str],
    steps: int,
    fuel: Optional[int],
    bound: Optional[int],
    meta: dict,
    **extra: int,
) -> dict:
    """One shard's profile row: its observed steps against its own bound
    (``meta`` carries the worker, retry count and degraded flag)."""
    ratio = bound_ratio(steps, bound)
    return {
        "shard": index,
        "input_tuples": sum(len(shard[name]) for name in partitioned),
        **extra,
        "steps": steps,
        "fuel": fuel,
        "bound": bound,
        "bound_ratio": round(ratio, 6) if ratio is not None else None,
        "worker": meta["worker"],
        "retries": meta["retries"],
        "degraded": meta["degraded"],
    }


def _attach_trace(tasks: Sequence[dict], span) -> None:
    """Ship the coordinator's trace context with every task (only when
    tracing is on — ``span`` is the live ``shard.evaluate`` span the
    worker subtrees parent under)."""
    if not isinstance(span, Span):
        return
    for index, task in enumerate(tasks):
        task["trace"] = {
            "trace_id": span.trace_id,
            "parent_id": span.span_id,
            "shard": index,
        }


def _synthesize_respawns(
    tracer: Tracer, span, retries_by_shard: Dict[int, dict]
) -> None:
    """Emit one ``shard.respawn`` span per shard that needed retries.

    A crashed worker's recorded spans die with it, so the crash-recovery
    path is represented explicitly: the retry's worker spans plus this
    coordinator-side marker, never a silently dropped subtree.
    """
    if not isinstance(span, Span):
        return
    for index, meta in sorted(retries_by_shard.items()):
        retries = int(meta.get("retries") or 0)
        if retries <= 0:
            continue
        tracer.ingest(
            [
                {
                    "name": "shard.respawn",
                    "span_id": tracer.new_span_id(),
                    "parent_id": span.span_id,
                    "trace_id": span.trace_id,
                    "status": "ok",
                    "start_unix": round(time.time(), 6),
                    "duration_ms": 0.0,
                    "attrs": {
                        "shard": index,
                        "retries": retries,
                        "degraded": bool(meta.get("degraded")),
                    },
                }
            ]
        )


def _fan_out(
    pool: ShardWorkerPool,
    tracer: Tracer,
    span,
    policy: ShardPolicy,
    tasks: List[dict],
) -> Tuple[List[dict], List[Relation]]:
    """Run one task per shard, graft the span lists the workers shipped
    back under ``span`` (one tree spanning both processes) and check
    every reply; the replies and the shard outputs, in shard order."""
    replies = pool.run_batch(tasks, timeout_s=policy.task_timeout_s)
    if isinstance(span, Span):
        for reply in replies:
            if reply.get("spans"):
                tracer.ingest(reply["spans"])
    parts: List[Relation] = []
    for index, reply in enumerate(replies):
        if not reply.get("ok"):
            if reply.get("error_kind") == "fuel":
                raise FuelExhausted(int(reply.get("steps") or 0))
            raise ReproError(
                f"shard {index} failed: "
                f"{reply.get('error', 'unknown error')}"
            )
        parts.append(Relation.from_tuples(reply["arity"], reply["tuples"]))
    return replies, parts


def execute_sharded_term(
    *,
    pool: ShardWorkerPool,
    tracer: Tracer,
    policy: ShardPolicy,
    plan: DistributionPlan,
    term: Term,
    engine: str,
    database: Database,
    db_digest: str,
    arity: Optional[int],
    cost: Optional[CostProfile],
    fuel_override: Optional[int],
    default_fuel: int,
    max_depth: int,
    provenance: Optional[ProvenanceFacts] = None,
) -> ShardOutcome:
    """Partition, evaluate the term plan per shard, canonically merge.

    Each shard's statistics are computed once.  The plan's exact
    read-set (``provenance``, TLI023) restricts only the *fuel pricing*
    to the relations the plan scans; the per-shard bound rows keep the
    full shard statistics, so the reported ``bound_ratio`` stays a
    Theorem 5.1 comparison.
    """
    shards, partitioned, keys = _partition(
        database, db_digest, policy, plan, tracer
    )
    stats = [DatabaseStats.of(shard) for shard in shards]
    fuels = [
        fuel_override
        if fuel_override is not None
        else shard_fuel(
            cost, shard, shard_stats,
            default=default_fuel, provenance=provenance,
        )
        for shard, shard_stats in zip(shards, stats)
    ]
    tasks = [
        {
            "kind": "term",
            "db_digest": keys[index],
            "database": shards[index],
            "term": term,
            "engine": engine,
            "fuel": fuels[index],
            "max_depth": max_depth,
            "arity": arity,
        }
        for index in range(policy.shards)
    ]
    with tracer.span(
        "shard.evaluate", engine=engine, tasks=len(tasks)
    ) as span:
        _attach_trace(tasks, span)
        replies, parts = _fan_out(pool, tracer, span, policy, tasks)
        span.set_attr(
            "retries", sum(r["_meta"]["retries"] for r in replies)
        )
        span.set_attr(
            "degraded", sum(1 for r in replies if r["_meta"]["degraded"])
        )
        _synthesize_respawns(
            tracer,
            span,
            {i: r["_meta"] for i, r in enumerate(replies)},
        )
    steps = [int(reply.get("steps") or 0) for reply in replies]
    rows = [
        _shard_row(
            index, shards[index], partitioned, steps[index], fuels[index],
            cost.bound(stats[index]) if cost is not None else None,
            reply["_meta"], output_tuples=len(reply["tuples"]),
        )
        for index, reply in enumerate(replies)
    ]
    with tracer.span("shard.merge", parts=len(parts)) as span:
        merged = merge_relations(parts, arity=arity)
        span.set_attr("tuples", len(merged))
    return ShardOutcome(
        relation=merged,
        steps=sum(steps),
        stages=None,
        partitioned=partitioned,
        shard_rows=rows,
    )


def execute_sharded_fixpoint(
    *,
    pool: ShardWorkerPool,
    tracer: Tracer,
    policy: ShardPolicy,
    plan: DistributionPlan,
    fixpoint: FixpointQuery,
    engine: str,
    database: Database,
    db_digest: str,
    cost: Optional[CostProfile],
    max_depth: int,
) -> ShardOutcome:
    """Run the compiled stage loop with each stage fanned over the shards.

    :func:`~repro.compile.fixpoint.run_fixpoint_query_compiled` owns the
    input check, the crank, convergence and the ``D^k`` order, as it does
    in process; this hands it a stage that ships the current (global)
    stage to every shard as ``__FIX__``, evaluates the step there by
    ``engine``'s stage in the engine table (set stages for ``"ra"``,
    NBE-materialized stages for ``"fixpoint"``), and merges the shard
    outputs.  The stage barrier is what makes broadcasting the fixpoint
    variable sound.
    """
    # TLI024 before the partitioner meets a missing input (the loop
    # repeats the check before its first stage).
    fixpoint.input_database(database)
    arity = fixpoint.output_arity
    shards, partitioned, keys = _partition(
        database, db_digest, policy, plan, tracer
    )
    shard_steps = [0] * policy.shards
    shard_meta = [
        {"worker": index % pool.size, "retries": 0, "degraded": False}
        for index in range(policy.shards)
    ]
    first_stage = True
    start = time.perf_counter()
    with tracer.span(
        "shard.evaluate", engine=engine, tasks=policy.shards
    ) as span:

        def fan_out(step, inputs, stage, depth, observer):
            # A Stage whose shards hold their own partitions of the
            # inputs and report their steps in the replies.
            nonlocal first_stage
            tasks = [
                {
                    "kind": "ra",
                    "engine": engine,
                    "db_digest": keys[index],
                    "database": shards[index],
                    "expr": step,
                    "fix_tuples": stage.tuples,
                    "fix_arity": arity,
                    "max_depth": depth,
                }
                for index in range(policy.shards)
            ]
            if first_stage:
                # Only the first stage ships trace context: per-shard
                # worker spans for every stage would blow the span volume
                # up linearly in the crank length, and stage 0 already
                # shows the cold/warm snapshot split.
                _attach_trace(tasks, span)
                first_stage = False
            replies, parts = _fan_out(pool, tracer, span, policy, tasks)
            stage_steps = 0
            for index, reply in enumerate(replies):
                steps = int(reply.get("steps") or 0)
                shard_steps[index] += steps
                stage_steps += steps
                shard_meta[index]["retries"] += reply["_meta"]["retries"]
                shard_meta[index]["degraded"] |= reply["_meta"]["degraded"]
            return merge_relations(parts, arity=arity), stage_steps

        run = run_fixpoint_query_compiled(
            fixpoint, database, stage=fan_out, max_depth=max_depth
        )
        span.set_attr("stages", run.stages)
        span.set_attr("steps", run.nbe_steps)
        span.set_attr(
            "degraded", sum(meta["degraded"] for meta in shard_meta)
        )
        span.set_attr("wall_ms", round(
            (time.perf_counter() - start) * 1000.0, 3
        ))
        _synthesize_respawns(tracer, span, dict(enumerate(shard_meta)))
    rows = [
        _shard_row(
            index, shards[index], partitioned, shard_steps[index], None,
            cost.bound(DatabaseStats.of(shards[index]))
            if cost is not None
            else None,
            shard_meta[index],
        )
        for index in range(policy.shards)
    ]
    with tracer.span("shard.merge", parts=policy.shards) as span:
        span.set_attr("tuples", len(run.relation))
    return ShardOutcome(
        relation=run.relation,
        steps=run.nbe_steps,
        stages=run.stages,
        partitioned=partitioned,
        shard_rows=rows,
    )
