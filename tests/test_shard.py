"""Tests for the sharded execution engine (partition, planner, pool,
service integration)."""

import pytest

from repro.db.decode import decode_relation
from repro.db.encode import encode_database
from repro.db.generators import random_database, random_relation
from repro.db.relations import Database, Relation
from repro.errors import ReproError
from repro.lam.parser import parse
from repro.lru import BoundedLRU
from repro.queries.fixpoint import (
    FIX_NAME,
    FixpointQuery,
    fix,
    same_generation_query,
    transitive_closure_query,
)
from repro.queries.language import QueryArity
from repro.relalg.ast import Base, Difference, Product, Project, Union
from repro.service import Catalog, QueryRequest, QueryService, ShardPolicy
from repro.service.engines import evaluate_term_query
from repro.shard.partition import (
    canonical_relation,
    merge_relations,
    partition_database,
    partition_relation,
)
from repro.shard.planner import (
    CODE_DISTRIBUTABLE,
    CODE_LOCAL_ONLY,
    MODE_BROADCAST,
    MODE_LOCAL,
    MODE_PARTITIONABLE,
    plan_distribution,
    plan_term_distribution,
)
from repro.shard.policy import ShardPolicy as PolicyClass
from repro.shard.pool import (
    SNAPSHOT_CACHE_SIZE,
    ShardWorkerPool,
    execute_task,
)


SIG1 = QueryArity((2,), 2)

#: Every partitionable single-input operator shape (satellite property
#: test): identity copy, column swap, diagonal projection, Eq-guarded
#: select, and a union of two parallel repeat folds of the same input.
PARTITIONABLE_OPS = {
    "copy": r"\R. \c. \n. R c n",
    "swap": r"\R. \c. \n. R (\x y T. c y x T) n",
    "diag": r"\R. \c. \n. R (\x y T. c x x T) n",
    "select": r"\R. \c. \n. R (\x y T. Eq x y (c x y T) T) n",
    "sym": r"\R. \c. \n. R (\x y T. c y x T) (R c n)",
}

SELF_JOIN = (
    r"\R. \c. \n. R (\x y T. R (\u v A. c x v A) T) n"
)


def evaluate_single(term, database):
    result = evaluate_term_query(term, encode_database(database))
    return decode_relation(result.normal_form, 2).relation


def evaluate_sharded_by_hand(term, database, shards, partitioner):
    parts = partition_database(
        database, shards, partitioner=partitioner,
        partition_names=list(database.names),
    )
    outputs = []
    for shard_db in parts:
        result = evaluate_term_query(term, encode_database(shard_db))
        outputs.append(decode_relation(result.normal_form, 2).relation)
    return merge_relations(outputs, arity=2)


class TestPartition:
    @pytest.mark.parametrize("partitioner", ["hash", "round_robin"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_partition_covers_and_merges(self, shards, partitioner):
        relation = random_relation(2, 30, seed=5)
        parts = partition_relation(relation, shards, partitioner=partitioner)
        assert len(parts) == shards
        assert sum(len(p) for p in parts) == len(relation)
        merged = merge_relations(parts, arity=2)
        assert merged.tuples == canonical_relation(relation).tuples
        # Disjointness: no tuple lands on two shards.
        seen = set()
        for part in parts:
            tuples = set(part.tuples)
            assert not (seen & tuples)
            seen |= tuples

    def test_hash_partition_is_deterministic(self):
        relation = random_relation(2, 25, seed=9)
        first = partition_relation(relation, 4)
        second = partition_relation(relation, 4)
        assert [p.tuples for p in first] == [p.tuples for p in second]

    def test_partition_database_replicates_broadcast_relations(self):
        db = random_database([2, 2], [12, 7], seed=3)
        parts = partition_database(db, 3, partition_names=["R1"])
        assert len(parts) == 3
        for shard in parts:
            # R2 is broadcast: every shard holds the full relation.
            assert shard["R2"].tuples == db["R2"].tuples
        merged = merge_relations([s["R1"] for s in parts], arity=2)
        assert merged.tuples == canonical_relation(db["R1"]).tuples

    def test_unknown_partition_name_rejected(self):
        db = random_database([2], [5], seed=1)
        with pytest.raises(ReproError):
            partition_database(db, 2, partition_names=["missing"])

    def test_merge_rejects_mixed_arity(self):
        with pytest.raises(ReproError):
            merge_relations(
                [Relation.from_tuples(1, [("a",)]),
                 Relation.from_tuples(2, [("a", "b")])],
            )


class TestPlannerTerms:
    @pytest.mark.parametrize("name", sorted(PARTITIONABLE_OPS))
    def test_tuple_local_operators_are_partitionable(self, name):
        plan = plan_term_distribution(
            parse(PARTITIONABLE_OPS[name]), SIG1, input_names=["E"]
        )
        assert plan.mode == MODE_PARTITIONABLE
        assert plan.code == CODE_DISTRIBUTABLE
        assert plan.partition_names == ("E",)

    def test_self_join_is_local_only(self):
        plan = plan_term_distribution(
            parse(SELF_JOIN), SIG1, input_names=["E"]
        )
        assert plan.mode == MODE_LOCAL
        assert plan.code == CODE_LOCAL_ONLY

    def test_two_input_join_is_broadcast(self):
        product = (
            r"\R1. \R2. \c. \n. R1 (\x y T. R2 (\u v A. c x v A) T) n"
        )
        plan = plan_term_distribution(
            parse(product), QueryArity((2, 2), 2),
            input_names=["R1", "R2"],
        )
        assert plan.mode == MODE_BROADCAST
        assert plan.code == CODE_DISTRIBUTABLE
        # Either side may be split on its own — never both at once
        # (that would be a sharded join).
        assert set(plan.partition_names) == {"R1", "R2"}

    def test_accumulator_dropping_join_is_conservatively_local(self):
        # The Eq-short-circuit intersection drops the inner accumulator
        # in its match branch; the chain grammar rejects it.
        intersect = (
            r"\R1. \R2. \c. \n. R1 (\x y T. "
            r"R2 (\u v A. Eq x u (Eq y v (c x y T) A) A) T) n"
        )
        plan = plan_term_distribution(
            parse(intersect), QueryArity((2, 2), 2),
            input_names=["R1", "R2"],
        )
        assert plan.mode == MODE_LOCAL
        assert plan.code == CODE_LOCAL_ONLY

    def test_no_signature_means_local_only(self):
        plan = plan_term_distribution(
            parse(PARTITIONABLE_OPS["swap"]), None
        )
        assert plan.mode == MODE_LOCAL
        assert "signature" in plan.reason

    def test_choose_partition_modes(self):
        db = random_database([2, 2], [10, 4], seed=2)
        partitionable = plan_term_distribution(
            parse(PARTITIONABLE_OPS["swap"]), SIG1, input_names=["R1"]
        )
        assert partitionable.choose_partition(db) == ("R1",)
        local = plan_term_distribution(parse(SELF_JOIN), SIG1)
        with pytest.raises(ReproError):
            local.choose_partition(db)


class TestPlannerFixpoints:
    def test_transitive_closure_is_partitionable(self):
        plan = plan_distribution(transitive_closure_query("E"))
        assert plan.mode == MODE_PARTITIONABLE
        assert plan.code == CODE_DISTRIBUTABLE
        assert plan.partition_names == ("E",)
        assert FIX_NAME in plan.broadcast_names

    def test_same_generation_classified(self):
        plan = plan_distribution(same_generation_query("P"))
        # The sg step joins P against the stage relation and P again —
        # whatever the verdict, it must carry a stable code.
        assert plan.code in (CODE_DISTRIBUTABLE, CODE_LOCAL_ONLY)
        assert plan.mode in (MODE_BROADCAST, MODE_LOCAL)

    def test_self_product_step_is_local_only(self):
        query = FixpointQuery.of(
            Product(Base("E"), Base("E")), 4, {"E": 2}
        )
        plan = plan_distribution(query)
        assert plan.mode == MODE_LOCAL
        assert plan.code == CODE_LOCAL_ONLY

    def test_difference_right_usage_is_local_only(self):
        query = FixpointQuery.of(
            Difference(fix(), Base("E")), 2, {"E": 2}
        )
        plan = plan_distribution(query)
        assert plan.mode == MODE_LOCAL

    def test_one_sided_join_is_broadcast(self):
        step = Union(
            Base("E"),
            Project(Product(Base("E"), fix()), (0, 3)),
        )
        plan = plan_distribution(FixpointQuery.of(step, 2, {"E": 2}))
        assert plan.mode == MODE_PARTITIONABLE
        assert plan.partition_names == ("E",)


class TestShardedEquivalence:
    """Satellite: partition -> per-shard evaluate -> merge equals the
    single-shard evaluation, over random databases, every partitionable
    operator, k in {1, 2, 3, 7}, and both partitioners."""

    @pytest.mark.parametrize("partitioner", ["hash", "round_robin"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("name", sorted(PARTITIONABLE_OPS))
    def test_shard_merge_equals_single(self, name, shards, partitioner):
        term = parse(PARTITIONABLE_OPS[name])
        for seed in (11, 23):
            db = random_database(
                [2], [14], universe_size=6, seed=seed + shards
            )
            single = canonical_relation(evaluate_single(term, db))
            merged = evaluate_sharded_by_hand(term, db, shards, partitioner)
            assert merged.tuples == single.tuples, (name, shards, seed)


class TestPolicy:
    def test_policy_validates(self):
        assert PolicyClass(shards=2).partitioner == "hash"
        with pytest.raises(ReproError):
            PolicyClass(shards=0)
        with pytest.raises(ReproError):
            PolicyClass(shards=2, fallback="panic")

    def test_service_reexports_policy(self):
        assert ShardPolicy is PolicyClass


class TestWorkerPool:
    def test_ping_and_task_roundtrip(self):
        with ShardWorkerPool(2) as pool:
            assert pool.ping() == [True, True]
            reply = pool.run_task({"kind": "ping"})
            assert reply["ok"] and reply["_meta"]["degraded"] is False

    def test_crash_recovery_mid_batch(self):
        """Satellite: a killed worker never surfaces as an exception —
        the batch returns one reply per task, the retry counter moves,
        and the worker is respawned."""
        events = []
        db = random_database([2], [6], seed=4)
        term = parse(PARTITIONABLE_OPS["swap"])
        with ShardWorkerPool(2, observer=events.append) as pool:
            pool.ping()
            pool.inject_crash(0)
            tasks = [
                {
                    "kind": "term",
                    "db_digest": f"d{i}",
                    "database": db,
                    "term": term,
                    "arity": 2,
                }
                for i in range(4)
            ]
            replies = pool.run_batch(tasks)
            assert len(replies) == 4
            assert all(r["ok"] for r in replies)
            assert all(not isinstance(r, Exception) for r in replies)
            # The dead worker's first task crashed and was retried.
            assert events.count("crash") >= 1
            assert events.count("retry") >= 1
            assert any(r["_meta"]["retries"] > 0 for r in replies)
            assert max(pool.respawn_counts()) >= 1

    def test_exhausted_retries_degrade_in_process(self):
        events = []
        with ShardWorkerPool(1, max_retries=1, backoff_s=0.01,
                             observer=events.append) as pool:
            # A "crash" task kills the worker before it replies, every
            # attempt — retries exhaust and the pool degrades in-process
            # (where the unknown kind becomes an error reply, not a
            # crash).
            reply = pool.run_task({"kind": "crash"})
            assert reply["_meta"]["degraded"] is True
            assert reply["_meta"]["retries"] == 2
            assert "degraded" in events

    def test_execute_task_reports_errors_as_replies(self):
        reply = execute_task({"kind": "nonsense"})
        assert reply["ok"] is False
        assert "unknown task kind" in reply["error"]

    def test_ra_task_without_arity_falls_back_to_nbe(self):
        """Per-shard "ra" needs the certified output arity; without it the
        worker degrades to NBE and must answer exactly as NBE does."""
        task = {
            "kind": "term",
            "database": random_database([2], [6], seed=4),
            "term": parse(PARTITIONABLE_OPS["sym"]),
            "trace": {"trace_id": "t", "parent_id": None, "shard": 0},
        }
        ra = execute_task({**task, "engine": "ra"})
        nbe = execute_task({**task, "engine": "nbe"})
        assert ra["ok"] and nbe["ok"]
        assert (ra["arity"], ra["tuples"]) == (nbe["arity"], nbe["tuples"])
        evaluate = next(
            s for s in ra["spans"] if s["name"] == "worker.evaluate"
        )
        assert evaluate["attrs"]["compile_fallback"] is True

    def test_snapshot_cache_is_bounded_and_reships_evicted(self):
        """Every update ships new digests, so a worker keeps only the most
        recent snapshots; the coordinator mirrors the bound and re-ships
        a snapshot the worker has evicted."""
        snapshots = [
            random_database([2], [4], seed=seed)
            for seed in range(SNAPSHOT_CACHE_SIZE + 2)
        ]
        preload = [
            {"kind": "db", "db_digest": f"d{i}", "database": db}
            for i, db in enumerate(snapshots)
        ]
        cache = BoundedLRU(SNAPSHOT_CACHE_SIZE)
        assert all(execute_task(task, cache)["ok"] for task in preload)
        assert cache.keys() == [f"d{i}" for i in range(2, len(snapshots))]
        gone = execute_task({"kind": "db", "db_digest": "d0"}, cache)
        assert "unknown database snapshot" in gone["error"]

        term = parse(PARTITIONABLE_OPS["swap"])
        with ShardWorkerPool(1) as pool:
            assert all(pool.run_task(task)["ok"] for task in preload)
            assert len(pool._workers[0].seen) == SNAPSHOT_CACHE_SIZE
            reply = pool.run_task(
                {"kind": "term", "db_digest": "d0",
                 "database": snapshots[0], "term": term, "arity": 2}
            )
            # The worker really evicted: a digest-only task for an
            # evicted snapshot finds nothing.
            evicted = pool.run_task({"kind": "db", "db_digest": "d2"})
        assert reply["ok"], reply.get("error")
        assert reply["tuples"] == evaluate_single(term, snapshots[0]).tuples
        assert "unknown database snapshot" in evicted["error"]

    def test_concurrent_eviction_keeps_the_mirror_exact(self):
        """Threads sharing one worker cycle through more snapshots than it
        keeps.  The coordinator strips a shipped database only when its
        mirror says the worker holds it, so a mirror that missed an
        eviction would surface as an unknown-snapshot error."""
        import sys
        import threading

        db = random_database([2], [4], seed=3)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardWorkerPool(1) as pool:

                def hammer(thread_id):
                    # Each thread alone revisits a digest only after more
                    # than the bound of others, so every revisit re-ships.
                    for round_ in range(2 * (SNAPSHOT_CACHE_SIZE + 4)):
                        digest = round_ % (SNAPSHOT_CACHE_SIZE + 4)
                        reply = pool.run_task(
                            {"kind": "db", "database": db,
                             "db_digest": f"t{thread_id}r{digest}"}
                        )
                        if not reply["ok"]:
                            errors.append(reply)

                threads = [
                    threading.Thread(target=hammer, args=(t,))
                    for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_snapshot_miss_leaves_the_mirror_exact(self):
        """A digest-only task for a snapshot the worker lacks fails with
        its own error kind and must not enter the coordinator's mirror:
        the next task shipping the database under that digest has to
        keep it."""
        db = random_database([2], [4], seed=5)
        term = parse(PARTITIONABLE_OPS["swap"])
        with ShardWorkerPool(1) as pool:
            miss = pool.run_task({"kind": "db", "db_digest": "dX"})
            assert miss["error_kind"] == "snapshot"
            assert "unknown database snapshot" in miss["error"]
            reply = pool.run_task(
                {"kind": "term", "db_digest": "dX", "database": db,
                 "term": term, "arity": 2}
            )
            assert "dX" in pool._workers[0].seen
        assert reply["ok"], reply.get("error")
        assert reply["tuples"] == evaluate_single(term, db).tuples

    def test_concurrent_tasks_never_cross_replies(self):
        """Regression: the pool is shared across concurrent requests, so
        the per-worker slot lock must keep each send/recv pair atomic —
        two threads hammering one worker must each get their own query's
        result back, never the other's."""
        import threading

        db = random_database([2], [8], seed=11)
        term = parse(PARTITIONABLE_OPS["swap"])
        errors = []
        with ShardWorkerPool(1) as pool:
            reference = pool.run_task(
                {"kind": "term", "db_digest": "ref", "database": db,
                 "term": term, "arity": 2}
            )
            assert reference["ok"]
            expected = sorted(reference["tuples"])

            def hammer(thread_id, rounds):
                for _ in range(rounds):
                    reply = pool.run_task(
                        {"kind": "term", "db_digest": f"t{thread_id}",
                         "database": db, "term": term, "arity": 2}
                    )
                    if (
                        not reply["ok"]
                        or reply["arity"] != 2
                        or sorted(reply["tuples"]) != expected
                    ):
                        errors.append((thread_id, reply))

            threads = [
                threading.Thread(target=hammer, args=(t, 10))
                for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []

    def test_closed_pool_batch_stays_aligned(self):
        """Regression: coordinator-side failures (here a closed pool) must
        come back as error replies at their task's position, never as a
        shorter reply list."""
        pool = ShardWorkerPool(2)
        pool.close()
        tasks = [{"kind": "ping"} for _ in range(3)]
        replies = pool.run_batch(tasks)
        assert len(replies) == 3
        assert all(r["ok"] is False for r in replies)
        assert all("closed" in r["error"] for r in replies)


@pytest.fixture
def shard_service():
    catalog = Catalog()
    catalog.register_database(
        "main", random_database([2], [16], universe_size=6, seed=7)
    )
    catalog.register_query(
        "swap", parse(PARTITIONABLE_OPS["swap"]), signature=SIG1
    )
    catalog.register_query("tc", transitive_closure_query("E"))
    edges = Relation.from_tuples(
        2, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )
    catalog.register_database(
        "graph", Database.of({"E": edges})
    )
    service = QueryService(catalog)
    yield service
    service.close()


class TestServiceSharding:
    def test_sharded_term_matches_local(self, shard_service):
        local = shard_service.execute(
            QueryRequest(query="swap", database="main")
        )
        sharded = shard_service.execute(
            QueryRequest(query="swap", database="main", shards=3)
        )
        assert local.ok and sharded.ok
        assert (
            canonical_relation(sharded.relation).tuples
            == canonical_relation(local.relation).tuples
        )
        shard_info = sharded.profile["shard"]
        assert shard_info["mode"] == MODE_PARTITIONABLE
        assert shard_info["code"] == CODE_DISTRIBUTABLE
        assert len(shard_info["rows"]) == 3
        for row in shard_info["rows"]:
            if row.get("bound_ratio") is not None:
                assert row["bound_ratio"] <= 1.0

    def test_sharded_fixpoint_matches_local(self, shard_service):
        local = shard_service.execute(
            QueryRequest(query="tc", database="graph")
        )
        sharded = shard_service.execute(
            QueryRequest(query="tc", database="graph", shards=2)
        )
        assert local.ok and sharded.ok
        assert (
            canonical_relation(sharded.relation).tuples
            == canonical_relation(local.relation).tuples
        )
        assert sharded.stages == local.stages

    def test_sharded_and_local_cache_keys_are_distinct(self, shard_service):
        request = QueryRequest(query="swap", database="main", shards=2)
        first = shard_service.execute(request)
        assert not first.cache_hit
        # A local request after a sharded one must not hit its entry.
        local = shard_service.execute(
            QueryRequest(query="swap", database="main")
        )
        assert not local.cache_hit
        again = shard_service.execute(request)
        assert again.cache_hit
        assert again.relation.tuples == first.relation.tuples

    def test_one_statistics_sweep_per_shard(self, shard_service, monkeypatch):
        """The fuel split and the bound rows share each shard's
        statistics: "swap" scans main's only relation, so its read-set
        statistics are the shard's own."""
        from repro.analysis.cost import DatabaseStats

        original = DatabaseStats.of
        sweeps = []

        def counting(database):
            sweeps.append(database)
            return original(database)

        monkeypatch.setattr(DatabaseStats, "of", staticmethod(counting))
        response = shard_service.execute(
            QueryRequest(query="swap", database="main", shards=2)
        )
        assert response.ok and not response.cache_hit
        assert len(response.profile["shard"]["rows"]) == 2
        assert len(sweeps) == 2

    def test_local_fallback_for_unshardable_plans(self, shard_service):
        shard_service.catalog.register_query(
            "selfjoin", parse(SELF_JOIN), signature=SIG1
        )
        response = shard_service.execute(
            QueryRequest(query="selfjoin", database="main", shards=2)
        )
        assert response.ok
        assert "shard" not in (response.profile or {})

    def test_error_fallback_policy_refuses(self, shard_service):
        shard_service.catalog.register_query(
            "selfjoin2", parse(SELF_JOIN), signature=SIG1
        )
        response = shard_service.execute(
            QueryRequest(
                query="selfjoin2",
                database="main",
                shard_policy=ShardPolicy(shards=2, fallback="error"),
            )
        )
        assert not response.ok
        assert "shard" in (response.error or "").lower()

    def test_shard_metrics_populate(self, shard_service):
        shard_service.execute(
            QueryRequest(query="swap", database="main", shards=2)
        )
        requests = shard_service.registry.get("repro_shard_requests_total")
        tasks = shard_service.registry.get("repro_shard_tasks_total")
        workers = shard_service.registry.get("repro_shard_workers")
        assert requests.value(mode=MODE_PARTITIONABLE) == 1
        assert tasks.value() >= 2
        assert workers.value() == 2

    def test_batch_survives_worker_crash(self, shard_service):
        """Satellite: killing a pool worker mid-stream never surfaces as
        an exception from execute_batch."""
        warm = shard_service.execute(
            QueryRequest(query="swap", database="main", shards=2)
        )
        assert warm.ok
        pool = shard_service._shard_pool
        assert pool is not None
        pool.inject_crash(0)
        # Distinct plans give distinct cache keys, so every request
        # really reaches the pool.
        names = []
        for name, source in sorted(PARTITIONABLE_OPS.items()):
            if name == "swap":
                continue
            shard_service.catalog.register_query(
                f"batch_{name}", parse(source), signature=SIG1
            )
            names.append(f"batch_{name}")
        batch = shard_service.execute_batch(
            [
                QueryRequest(
                    query=name, database="main", shards=2, tag=name
                )
                for name in names
            ]
        )
        assert len(batch.responses) == len(names)
        assert [r.tag for r in batch.responses] == names
        assert all(r.ok for r in batch.responses)
        crashes = shard_service.registry.get(
            "repro_shard_worker_crashes_total"
        )
        retries = shard_service.registry.get("repro_shard_retries_total")
        assert crashes.value() >= 1
        assert retries.value() >= 1


class TestFixpointTowerSharding:
    """A fixpoint plan shards only stage by stage.  On a reduction
    engine its tower is reduced whole, so the plan is local-only
    (TLI018) and runs in process."""

    @pytest.fixture
    def reach_service(self):
        from repro.queries.fixpoint import reachability_query

        service = QueryService()
        service.catalog.register_database(
            "main",
            Database.of({
                "S": Relation.unary(["o1"]),
                "E": Relation.from_tuples(2, [("o1", "o2"), ("o2", "o4")]),
            }),
        )
        service.catalog.register_query("reach", reachability_query())
        yield service
        service.close()

    def test_tower_engine_runs_in_process(self, reach_service, monkeypatch):
        import repro.shard.executor as executor

        def refuse(**kwargs):
            raise AssertionError("a fixpoint tower reached the shards")

        monkeypatch.setattr(executor, "execute_sharded_term", refuse)
        sharded = reach_service.execute(
            QueryRequest(query="reach", database="main", engine="nbe",
                         shards=2)
        )
        assert sharded.ok, sharded.error
        assert "shard" not in sharded.profile
        assert sharded.relation.as_set() == {("o1",), ("o2",), ("o4",)}
        # The in-process run is cached under the unsharded key.
        local = reach_service.execute(
            QueryRequest(query="reach", database="main", engine="nbe")
        )
        assert local.cache_hit
        assert local.relation.tuples == sharded.relation.tuples

    @pytest.mark.parametrize("engine", ["nbe", "smallstep", "applicative"])
    def test_error_fallback_names_tli018(self, reach_service, engine):
        response = reach_service.execute(
            QueryRequest(
                query="reach",
                database="main",
                engine=engine,
                shard_policy=ShardPolicy(shards=2, fallback="error"),
            )
        )
        assert response.status == "error"
        assert CODE_LOCAL_ONLY in response.error


class TestTimeoutPoolReuse:
    """Satellite: one long-lived deadline-watch pool per service, not a
    fresh ThreadPoolExecutor per timed request."""

    def test_timed_requests_share_one_executor(self, shard_service):
        assert shard_service._timeout_pool is None
        first = shard_service.execute(
            QueryRequest(query="swap", database="main", timeout_s=30.0)
        )
        pool = shard_service._timeout_pool
        assert first.ok and pool is not None
        shard_service.execute(
            QueryRequest(
                query="swap", database="main", timeout_s=30.0,
                fuel=123_456,
            )
        )
        assert shard_service._timeout_pool is pool

    def test_close_shuts_the_executor_down(self):
        service = QueryService()
        service.catalog.register_database(
            "main", random_database([2], [4], seed=1)
        )
        service.execute(
            QueryRequest(
                query=parse(r"\R. \c. \n. R c n"), database="main",
                arity=2, timeout_s=30.0,
            )
        )
        pool = service._timeout_pool
        assert pool is not None
        service.close()
        assert pool._shutdown

    def test_context_manager_closes(self):
        with QueryService() as service:
            service.catalog.register_database(
                "main", random_database([2], [4], seed=2)
            )
            response = service.execute(
                QueryRequest(
                    query=parse(r"\R. \c. \n. R c n"), database="main",
                    arity=2, timeout_s=30.0,
                )
            )
            assert response.ok
            pool = service._timeout_pool
            assert pool is not None
        assert pool._shutdown


def shuffled_graph(nodes, out_degree, seed):
    """A directed graph over ``o1..on`` with ``out_degree`` edges per
    node, listed in a shuffled order (so domain order != sorted order)."""
    import random

    rng = random.Random(seed)
    names = [f"o{i + 1}" for i in range(nodes)]
    edges = [
        (source, target)
        for source in names
        for target in rng.sample([n for n in names if n != source],
                                 out_degree)
    ]
    rng.shuffle(edges)
    return Relation.from_tuples(2, edges)


@pytest.fixture(scope="module")
def fixpoint_service():
    from repro.queries.fixpoint import reachability_query

    graph = shuffled_graph(7, 2, seed=3)
    # sg's stages cost the NBE stage evaluator a 3-way product each.
    up, down = shuffled_graph(4, 1, seed=3), shuffled_graph(4, 1, seed=4)
    catalog = Catalog()
    catalog.register_query("tc", transitive_closure_query("E"))
    catalog.register_query("reach", reachability_query("S", "E"))
    catalog.register_query("sg", same_generation_query())
    catalog.register_database("tc", Database.of({"E": graph}))
    catalog.register_database(
        "reach",
        Database.of({"S": Relation.unary(["o5"]), "E": graph}),
    )
    catalog.register_database(
        "sg",
        Database.of({
            "flat": Relation.from_tuples(2, down.tuples[:2]),
            "up": up,
            "down": down,
        }),
    )
    service = QueryService(catalog)
    yield service
    service.close()


class TestShardedFixpointContract:
    """Sharded fixpoints run the compiled stage loop with a fan-out step,
    so they keep Theorem 5.2's contract: the unsharded tuple order, the
    same stages, and the loop's input check."""

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("name", ["tc", "reach", "sg"])
    def test_sharded_ra_matches_unsharded_engines(
        self, fixpoint_service, name, shards
    ):
        def run(**extra):
            response = fixpoint_service.execute(
                QueryRequest(query=name, database=name, **extra)
            )
            assert response.ok, response.error
            return response

        local_ra = run(engine="ra")
        local_fixpoint = run(engine="fixpoint")
        sharded = run(engine="ra", shards=shards)
        assert sharded.engine == "ra"
        rows = sharded.profile["shard"]["rows"]
        assert len(rows) == shards
        assert sharded.relation.tuples == local_ra.relation.tuples
        assert sharded.relation.tuples == local_fixpoint.relation.tuples
        assert sharded.stages == local_ra.stages == local_fixpoint.stages
        # The shards' summed set ops plus the |D|^k sweep.
        entry = fixpoint_service.catalog.get_query(name)
        inputs = entry.fixpoint.input_database(
            fixpoint_service.catalog.get_database(name).database
        )
        sweep = len(inputs.active_domain()) ** entry.output_arity
        assert sharded.steps == sum(row["steps"] for row in rows) + sweep

    def test_sharded_fixpoint_engine_keeps_the_order(self, fixpoint_service):
        local = fixpoint_service.execute(
            QueryRequest(query="tc", database="tc", engine="fixpoint")
        )
        sharded = fixpoint_service.execute(
            QueryRequest(
                query="tc", database="tc", engine="fixpoint", shards=2
            )
        )
        assert sharded.ok and sharded.engine == "fixpoint"
        assert sharded.relation.tuples == local.relation.tuples
        assert sharded.stages == local.stages

    def test_ra_stage_runs_no_nbe(self, monkeypatch):
        import repro.eval.materialize as materialize
        from repro.relalg.engine import evaluate_ra

        def no_nbe(*args, **kwargs):
            raise AssertionError("an ra stage ran NBE materialization")

        monkeypatch.setattr(
            materialize, "run_ra_query_materialized", no_nbe
        )
        step = transitive_closure_query("E").effective_step()
        database = Database.of({"E": shuffled_graph(5, 2, seed=1)})
        stage = Relation.from_tuples(2, database["E"].tuples[:4])
        reply = execute_task(
            {
                "kind": "ra",
                "engine": "ra",
                "database": database,
                "expr": step,
                "fix_tuples": stage.tuples,
                "fix_arity": 2,
            }
        )
        assert reply["ok"], reply
        expected = evaluate_ra(step, database.with_relation(FIX_NAME, stage))
        assert reply["tuples"] == expected.tuples
        assert reply["steps"] == len(expected) + len(stage)

    def test_missing_input_is_tli024_before_fan_out(self):
        from repro.errors import SchemaError
        from repro.obs.tracing import Tracer
        from repro.shard.executor import execute_sharded_fixpoint

        class UnusedPool:
            size = 2

            def run_batch(self, tasks, **kwargs):
                raise AssertionError("fanned out before the input check")

        query = transitive_closure_query("E")
        with pytest.raises(SchemaError, match="TLI024"):
            execute_sharded_fixpoint(
                pool=UnusedPool(),
                tracer=Tracer(enabled=False),
                policy=PolicyClass(shards=2),
                plan=plan_distribution(query),
                fixpoint=query,
                engine="ra",
                database=Database.of({"F": shuffled_graph(4, 1, seed=2)}),
                db_digest="no-e",
                cost=None,
                max_depth=10_000,
            )
