"""The shard coordinator: partition → fan out → canonical merge.

This is the piece the service runtime calls when a request carries a
:class:`~repro.shard.policy.ShardPolicy`.  It owns no state — the pool,
tracer and metrics belong to the service — and returns a
:class:`ShardOutcome` whose relation is in canonical order (the merge
combiner's order), with a per-shard profile carrying each shard's
observed steps against its own Theorem 5.1 bound.

Two drivers:

* :func:`execute_sharded_term` — one task per shard, single round.
* :func:`execute_sharded_fixpoint` — the coordinator runs the Theorem 5.2
  stage loop; each stage fans the step evaluation out over the shards with
  the current stage relation broadcast as ``__FIX__``, merges, and checks
  convergence globally (the stage barrier is what makes broadcast of the
  fixpoint variable sound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cost import CostProfile, DatabaseStats
from repro.analysis.provenance import ProvenanceFacts
from repro.db.relations import Database, Relation
from repro.errors import FuelExhausted, ReproError
from repro.lam.terms import Term
from repro.obs.profiler import bound_ratio
from repro.obs.tracing import Span, Tracer
from repro.queries.fixpoint import FIX_NAME, FixpointQuery
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


def _shard_input_tuples(
    shard: Database, partitioned: Sequence[str]
) -> int:
    return sum(len(shard[name]) for name in partitioned)


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


def _graft_worker_spans(
    tracer: Tracer, span, replies: Sequence[dict]
) -> None:
    """Merge the span lists the workers shipped back into the
    coordinator's exporters (one tree spanning both processes)."""
    if not isinstance(span, Span):
        return
    for reply in replies:
        spans = reply.get("spans")
        if spans:
            tracer.ingest(spans)


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


def _check_reply(reply: dict, shard: int) -> None:
    if reply.get("ok"):
        return
    if reply.get("error_kind") == "fuel":
        raise FuelExhausted(int(reply.get("steps") or 0))
    raise ReproError(
        f"shard {shard} failed: {reply.get('error', 'unknown error')}"
    )


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
        replies = pool.run_batch(tasks, timeout_s=policy.task_timeout_s)
        span.set_attr(
            "retries", sum(r["_meta"]["retries"] for r in replies)
        )
        span.set_attr(
            "degraded", sum(1 for r in replies if r["_meta"]["degraded"])
        )
        _graft_worker_spans(tracer, span, replies)
        _synthesize_respawns(
            tracer,
            span,
            {i: r["_meta"] for i, r in enumerate(replies)},
        )
    rows: List[dict] = []
    parts: List[Relation] = []
    total_steps = 0
    for index, reply in enumerate(replies):
        _check_reply(reply, index)
        steps = int(reply.get("steps") or 0)
        total_steps += steps
        parts.append(
            Relation.from_tuples(reply["arity"], reply["tuples"])
        )
        bound = cost.bound(stats[index]) if cost is not None else None
        ratio = bound_ratio(steps, bound)
        rows.append(
            {
                "shard": index,
                "input_tuples": _shard_input_tuples(
                    shards[index], partitioned
                ),
                "output_tuples": len(reply["tuples"]),
                "steps": steps,
                "fuel": fuels[index],
                "bound": bound,
                "bound_ratio": (
                    round(ratio, 6) if ratio is not None else None
                ),
                "worker": reply["_meta"]["worker"],
                "retries": reply["_meta"]["retries"],
                "degraded": reply["_meta"]["degraded"],
            }
        )
    with tracer.span("shard.merge", parts=len(parts)) as span:
        merged = merge_relations(parts, arity=arity)
        span.set_attr("tuples", len(merged))
    return ShardOutcome(
        relation=merged,
        steps=total_steps,
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
    database: Database,
    db_digest: str,
    cost: Optional[CostProfile],
    max_depth: int,
) -> ShardOutcome:
    """Run the stage loop with each stage's step fanned over the shards.

    Per stage: evaluate ``effective_step`` over every shard database with
    the current (global) stage relation bound to ``__FIX__``, merge the
    shard outputs, and stop when the merged stage repeats — the same
    convergence rule :func:`repro.eval.ptime.run_fixpoint_query` applies,
    here checked on the canonical merged relation.  The stage count is
    capped at the Crank length ``|D|^k`` (Section 4), which bounds even
    non-inflationary, non-monotone steps.
    """
    arity = fixpoint.output_arity
    shards, partitioned, keys = _partition(
        database, db_digest, policy, plan, tracer
    )
    step = fixpoint.effective_step()
    crank_length = len(database.active_domain()) ** arity
    stage = Relation.empty(arity)
    per_shard_steps: Dict[int, int] = {i: 0 for i in range(policy.shards)}
    per_shard_retries: Dict[int, int] = {i: 0 for i in range(policy.shards)}
    per_shard_degraded: Dict[int, bool] = {
        i: False for i in range(policy.shards)
    }
    total_steps = 0
    stages_run = 0
    start = time.perf_counter()
    with tracer.span(
        "shard.evaluate", engine="fixpoint", tasks=policy.shards
    ) as span:
        for stage_index in range(crank_length):
            tasks = [
                {
                    "kind": "ra",
                    "db_digest": keys[index],
                    "database": shards[index],
                    "expr": step,
                    "fix_name": FIX_NAME,
                    "fix_tuples": stage.tuples,
                    "fix_arity": arity,
                    "max_depth": max_depth,
                }
                for index in range(policy.shards)
            ]
            if stage_index == 0:
                # Only the first stage ships trace context: per-shard
                # worker spans for every stage would blow the span volume
                # up linearly in the crank length, and stage 0 already
                # shows the cold/warm snapshot split.
                _attach_trace(tasks, span)
            replies = pool.run_batch(
                tasks, timeout_s=policy.task_timeout_s
            )
            _graft_worker_spans(tracer, span, replies)
            parts: List[Relation] = []
            for index, reply in enumerate(replies):
                _check_reply(reply, index)
                steps = int(reply.get("steps") or 0)
                per_shard_steps[index] += steps
                total_steps += steps
                per_shard_retries[index] += reply["_meta"]["retries"]
                per_shard_degraded[index] |= reply["_meta"]["degraded"]
                parts.append(
                    Relation.from_tuples(reply["arity"], reply["tuples"])
                )
            merged = merge_relations(parts, arity=arity)
            stages_run += 1
            if merged == stage:
                break
            stage = merged
        span.set_attr("stages", stages_run)
        span.set_attr("steps", total_steps)
        span.set_attr(
            "degraded", sum(1 for d in per_shard_degraded.values() if d)
        )
        span.set_attr("wall_ms", round(
            (time.perf_counter() - start) * 1000.0, 3
        ))
        _synthesize_respawns(
            tracer,
            span,
            {
                index: {
                    "retries": per_shard_retries[index],
                    "degraded": per_shard_degraded[index],
                }
                for index in range(policy.shards)
            },
        )
    rows: List[dict] = []
    for index in range(policy.shards):
        bound = (
            cost.bound(DatabaseStats.of(shards[index]))
            if cost is not None
            else None
        )
        ratio = bound_ratio(per_shard_steps[index], bound)
        rows.append(
            {
                "shard": index,
                "input_tuples": _shard_input_tuples(
                    shards[index], partitioned
                ),
                "steps": per_shard_steps[index],
                "fuel": None,
                "bound": bound,
                "bound_ratio": (
                    round(ratio, 6) if ratio is not None else None
                ),
                "worker": index % pool.size,
                "retries": per_shard_retries[index],
                "degraded": per_shard_degraded[index],
            }
        )
    with tracer.span("shard.merge", parts=policy.shards) as span:
        span.set_attr("tuples", len(stage))
    return ShardOutcome(
        relation=stage,
        steps=total_steps,
        stages=stages_run,
        partitioned=partitioned,
        shard_rows=rows,
    )
