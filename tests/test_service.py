"""Tests for the query service runtime (catalog, cache, batch executor)."""

import time

import pytest

from repro.db.generators import chain_graph_relation, random_database
from repro.db.relations import Database, Relation
from repro.errors import EvaluationError, QueryTermError, SchemaError
from repro.eval.driver import run_query
from repro.lam.parser import parse
from repro.lam.terms import digest
from repro.queries.fixpoint import transitive_closure_query
from repro.queries.language import QueryArity
from repro.queries.relalg_compile import build_ra_query
from repro.relalg.ast import Base, ColumnEqualsColumn
from repro.service import (
    Catalog,
    QueryRequest,
    QueryService,
    ResultCache,
)
from repro.service.cache import CachedResult
from repro.service.engines import relation_term
from repro.shard.pool import execute_task


SWAP = r"\R1. \R2. \c. \n. R1 (\x y T. c y x T) n"
DIAG = r"\R1. \R2. \c. \n. R1 (\x y T. Eq x y (c x x T) T) n"
INTERSECT = (
    r"\R1. \R2. \c. \n. R1 (\x y T. "
    r"R2 (\u v A. Eq x u (Eq y v (c x y T) A) A) T) n"
)
SIG22 = QueryArity((2, 2), 2)


@pytest.fixture
def db():
    return random_database([2, 2], [8, 6], universe_size=6, seed=11)


@pytest.fixture
def service(db):
    svc = QueryService()
    svc.catalog.register_database("main", db)
    svc.catalog.register_query("swap", parse(SWAP), signature=SIG22)
    return svc


class TestCatalog:
    def test_database_encoded_once(self, db):
        catalog = Catalog()
        entry = catalog.register_database("main", db)
        assert len(entry.encoded) == len(db)
        # Requests share the registration-time encoding objects.
        again = catalog.get_database("main")
        assert again.encoded is entry.encoded
        assert again.version == 1

    def test_update_bumps_version_and_digest(self, db):
        catalog = Catalog()
        first = catalog.register_database("main", db)
        other = random_database([2, 2], [5, 4], universe_size=6, seed=3)
        second = catalog.update_database("main", other)
        assert second.version == 2
        assert second.digest != first.digest

    def test_update_unregistered_fails(self, db):
        with pytest.raises(SchemaError):
            Catalog().update_database("nope", db)

    def test_unknown_lookups_fail(self):
        catalog = Catalog()
        with pytest.raises(SchemaError):
            catalog.get_database("missing")
        with pytest.raises(EvaluationError):
            catalog.get_query("missing")

    def test_term_registration_checks_order(self):
        catalog = Catalog()
        entry = catalog.register_query(
            "swap", parse(SWAP), signature=SIG22
        )
        # The plan compiles cleanly, so registration auto-selects the
        # set-backed engine (TLI028).
        assert entry.engine == "ra"
        assert entry.compiled is not None and entry.compiled.compiled
        assert entry.kind == "term"
        assert entry.order == 3  # TLI=0 lives at order 3
        assert entry.output_arity == 2

    def test_non_query_term_rejected_at_registration(self):
        # Result type o, not a relation type: fails Lemma 3.9 checking.
        with pytest.raises(QueryTermError):
            Catalog().register_query(
                "bad",
                parse(r"\R1. \R2. R1 (\x y T. x) o1"),
                signature=SIG22,
            )

    def test_ill_typed_term_rejected_without_signature(self):
        from repro.errors import TypeInferenceError

        with pytest.raises(TypeInferenceError):
            Catalog().register_query("bad", parse(r"\x. x x"))

    def test_check_false_skips_validation(self):
        entry = Catalog().register_query(
            "unchecked", parse(r"\x. x x"), check=False
        )
        assert entry.order is None

    def test_fixpoint_selects_ptime_engine(self):
        entry = Catalog().register_query("tc", transitive_closure_query())
        assert entry.engine == "fixpoint"
        assert entry.kind == "fixpoint"
        assert entry.order == 4  # TLI=1 towers live at order 4
        assert entry.output_arity == 2

    def test_engine_override(self):
        entry = Catalog().register_query(
            "swap", parse(SWAP), signature=SIG22, engine="smallstep"
        )
        assert entry.engine == "smallstep"
        with pytest.raises(EvaluationError):
            Catalog().register_query(
                "swap", parse(SWAP), signature=SIG22, engine="warp"
            )

    def test_queries_interned(self):
        catalog = Catalog()
        a = catalog.register_query("a", parse(SWAP), signature=SIG22)
        b = catalog.register_query("b", parse(SWAP), signature=SIG22)
        assert a.term is b.term
        assert a.digest == b.digest


class TestResultCache:
    def _entry(self, relation):
        from repro.db.decode import DecodedRelation

        decoded = DecodedRelation(relation, relation.tuples, False, False)
        return CachedResult(
            relation=relation,
            decoded=decoded,
            normal_form=parse("o1"),
            engine="nbe",
            steps=None,
            stages=None,
            compute_wall_ms=1.0,
        )

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        rel = Relation.from_tuples(1, [("o1",)])
        for name in ("a", "b", "c"):
            cache.put((name, "db", 1, "nbe"), self._entry(rel))
        assert cache.get(("a", "db", 1, "nbe")) is None  # evicted
        assert cache.get(("c", "db", 1, "nbe")) is not None
        stats = cache.stats()
        assert stats.evictions == 1 and stats.size == 2

    def test_invalidate_database(self):
        cache = ResultCache(capacity=8)
        rel = Relation.from_tuples(1, [("o1",)])
        cache.put(("q", "a", 1, "nbe"), self._entry(rel))
        cache.put(("q", "a", 2, "nbe"), self._entry(rel))
        cache.put(("q", "b", 1, "nbe"), self._entry(rel))
        assert cache.invalidate_database("a") == 2
        assert cache.get(("q", "b", 1, "nbe")) is not None
        assert len(cache) == 1

    def test_hit_rate(self):
        cache = ResultCache(capacity=2)
        rel = Relation.from_tuples(1, [("o1",)])
        key = ("q", "db", 1, "nbe")
        assert cache.get(key) is None
        cache.put(key, self._entry(rel))
        assert cache.get(key) is not None
        assert cache.stats().hit_rate == 0.5


class TestExecute:
    def test_single_request(self, service, db):
        response = service.execute(
            QueryRequest(query="swap", database="main")
        )
        assert response.ok and not response.cache_hit
        expected = Relation.from_any_order(
            2, [(y, x) for x, y in db["R1"].tuples]
        )
        assert response.relation.same_set(expected)
        assert response.wall_ms > 0
        assert response.database_version == 1

    def test_cache_hit_on_repeat(self, service):
        first = service.execute(QueryRequest(query="swap", database="main"))
        second = service.execute(QueryRequest(query="swap", database="main"))
        assert not first.cache_hit and second.cache_hit
        assert second.relation is first.relation
        assert service.cache.stats().hits == 1

    def test_inline_term_and_database(self, db):
        service = QueryService()
        response = service.execute(
            QueryRequest(query=parse(SWAP), database=db, arity=2)
        )
        assert response.ok
        # Same content => same cache key, even as separate objects.
        copy = Database(db.relations)
        again = service.execute(
            QueryRequest(query=parse(SWAP), database=copy, arity=2)
        )
        assert again.cache_hit

    def test_engine_override_reports_steps(self, service):
        response = service.execute(
            QueryRequest(query="swap", database="main", engine="smallstep")
        )
        assert response.ok and response.steps > 0

    def test_unknown_engine_fails_fast(self, service):
        response = service.execute(
            QueryRequest(query="swap", database="main", engine="warp")
        )
        assert response.status == "error"
        assert "warp" in response.error

    def test_fuel_exhaustion_degrades_gracefully(self, service):
        response = service.execute(
            QueryRequest(
                query="swap", database="main", engine="smallstep", fuel=2
            )
        )
        assert response.status == "fuel_exhausted"
        assert response.steps == 2
        # The service keeps serving and never cached the failure.
        ok = service.execute(QueryRequest(query="swap", database="main"))
        assert ok.ok and not ok.cache_hit

    def test_arity_mismatch_is_an_error(self, service):
        response = service.execute(
            QueryRequest(query="swap", database="main", arity=3)
        )
        assert response.status == "error"

    def test_fixpoint_plan(self):
        service = QueryService()
        service.catalog.register_database(
            "graph", Database.of({"E": chain_graph_relation(5)})
        )
        service.catalog.register_query("tc", transitive_closure_query())
        response = service.execute(
            QueryRequest(query="tc", database="graph")
        )
        assert response.ok and response.engine == "fixpoint"
        assert response.stages is not None and response.stages >= 1
        from tests.conftest import transitive_closure

        expected = transitive_closure(chain_graph_relation(5))
        assert response.relation.as_set() == expected

    def test_fixpoint_engine_requires_spec(self, service):
        response = service.execute(
            QueryRequest(query="swap", database="main", engine="fixpoint")
        )
        assert response.status == "error"
        assert "fixpoint" in response.error

    def test_update_database_invalidates(self, service):
        first = service.execute(QueryRequest(query="swap", database="main"))
        new_db = Database.of(
            {
                "R1": Relation.from_tuples(2, [("o1", "o2")]),
                "R2": Relation.empty(2),
            }
        )
        service.update_database("main", new_db)
        second = service.execute(QueryRequest(query="swap", database="main"))
        assert not second.cache_hit
        assert second.database_version == 2
        assert second.relation.tuples == (("o2", "o1"),)
        assert first.relation.tuples != second.relation.tuples

    def test_timeout_response(self, service):
        # An untyped diverging term grinds through its (bounded) fuel for
        # roughly a second; the caller's 50ms deadline fires long before,
        # and the abandoned worker cannot outlive its budget.
        omega = parse(r"(\x. x x) (\x. x x)")
        start = time.perf_counter()
        response = service.execute(
            QueryRequest(
                query=omega, database="main", engine="smallstep",
                fuel=100_000, timeout_s=0.05,
            )
        )
        assert response.status == "timeout"
        assert time.perf_counter() - start < 0.5  # did not wait for fuel


class TestBatch:
    def test_batch_preserves_order_and_tags(self, service):
        requests = [
            QueryRequest(query="swap", database="main", tag=f"r{i}")
            for i in range(10)
        ]
        result = service.execute_batch(requests)
        assert [r.tag for r in result.responses] == [
            f"r{i}" for i in range(10)
        ]
        stats = result.stats
        assert stats["requests"] == 10
        assert stats["cache_misses"] == 1  # single-flight: one compute
        assert stats["cache_hits"] == 9
        assert stats["statuses"] == {"ok": 10}
        assert stats["latency_p50_ms"] >= 0
        assert stats["throughput_qps"] > 0

    def test_batch_mixed_statuses(self, service):
        requests = [
            QueryRequest(query="swap", database="main"),
            QueryRequest(query="missing", database="main"),
            QueryRequest(
                query="swap", database="main", engine="smallstep", fuel=1
            ),
        ]
        result = service.execute_batch(requests)
        statuses = [r.status for r in result.responses]
        assert statuses == ["ok", "error", "fuel_exhausted"]

    def test_service_stats_accumulate(self, service):
        service.execute_batch(
            [QueryRequest(query="swap", database="main")] * 4
        )
        stats = service.stats()
        assert stats["requests"] == 4
        assert stats["statuses"]["ok"] == 4


class TestEngineAgreement:
    """All engines agree with the reference small-step evaluator on the
    decoded relation (Church-Rosser + strong normalization)."""

    @pytest.mark.parametrize(
        "source", [SWAP, DIAG, INTERSECT], ids=["swap", "diag", "intersect"]
    )
    def test_term_engines_agree(self, source):
        db = random_database([2, 2], [6, 5], universe_size=5, seed=23)
        service = QueryService()
        service.catalog.register_database("main", db)
        service.catalog.register_query("q", parse(source), signature=SIG22)
        reference = service.execute(
            QueryRequest(query="q", database="main", engine="smallstep")
        )
        assert reference.ok
        for engine in ("nbe", "applicative"):
            response = service.execute(
                QueryRequest(query="q", database="main", engine=engine)
            )
            assert response.ok, response.error
            assert not response.cache_hit  # engine is part of the key
            assert response.relation.same_set(reference.relation)

    def test_fixpoint_agrees_with_whole_term_normalization(self):
        # Tiny instance: the PTIME stage evaluator must produce the same
        # decoded relation as normalizing the compiled TLI=1 tower whole.
        # (NBE agrees with the small-step reference on term queries above
        # and — at the normal-form level — in test_ptime_eval, closing the
        # chain back to the reference evaluator; running the tower through
        # the small-step engine directly is exactly the exponential blowup
        # Section 5 warns about.)
        db = Database.of(
            {"E": Relation.from_tuples(2, [("o1", "o2")])}
        )
        service = QueryService()
        service.catalog.register_database("g", db)
        service.catalog.register_query("tc", transitive_closure_query())
        staged = service.execute(QueryRequest(query="tc", database="g"))
        reference = service.execute(
            QueryRequest(
                query="tc", database="g", engine="nbe", arity=2,
                max_depth=2_000_000,
            )
        )
        assert staged.ok and reference.ok, (staged.error, reference.error)
        assert staged.relation.same_set(reference.relation)


class TestBatchSpeedup:
    """Acceptance: >=100 repeated/overlapping queries through the service
    run >=2x faster than the same workload through cold one-shot
    run_query calls, with full per-request stats."""

    def test_batch_beats_cold_one_shots(self):
        db = random_database([2, 2], [12, 10], universe_size=7, seed=42)
        suite = {
            "swap": parse(SWAP),
            "diag": parse(DIAG),
            "intersect": parse(INTERSECT),
            "join": build_ra_query(
                Base("R1").times(Base("R2")).where(ColumnEqualsColumn(1, 2)),
                ["R1", "R2"],
                {"R1": 2, "R2": 2},
            ),
            "union": build_ra_query(
                Base("R1").union(Base("R2")),
                ["R1", "R2"],
                {"R1": 2, "R2": 2},
            ),
        }
        service = QueryService()
        service.catalog.register_database("main", db)
        for name, term in suite.items():
            service.catalog.register_query(name, term, check=False)

        names = list(suite)
        requests = [
            QueryRequest(query=names[i % len(names)], database="main")
            for i in range(100)
        ]

        start = time.perf_counter()
        cold = [run_query(suite[names[i % len(names)]], db) for i in range(100)]
        cold_s = time.perf_counter() - start

        result = service.execute_batch(requests)
        batch_s = result.wall_ms / 1000.0

        # Per-request stats are present on every response.
        for response in result.responses:
            assert response.ok
            assert response.wall_ms >= 0
            assert response.engine == "nbe"
        stats = result.stats
        assert stats["requests"] == 100
        assert stats["cache_misses"] == len(suite)
        assert stats["cache_hits"] == 100 - len(suite)
        assert stats["hit_rate"] == pytest.approx(0.95)

        # Results agree with the one-shot reference path.
        for i, response in enumerate(result.responses):
            assert response.relation.same_set(cold[i].relation)

        assert cold_s / batch_s >= 2.0, (
            f"batch {batch_s * 1000:.1f}ms vs cold {cold_s * 1000:.1f}ms "
            f"(speedup {cold_s / batch_s:.2f}x < 2x)"
        )


class TestDriverWrapper:
    def test_run_query_validates_engine_before_encoding(self, db):
        with pytest.raises(EvaluationError, match="warp"):
            run_query(parse(SWAP), db, engine="warp")

    def test_run_query_matches_service(self, service, db):
        one_shot = run_query(parse(SWAP), db)
        served = service.execute(QueryRequest(query="swap", database="main"))
        assert one_shot.relation.same_set(served.relation)
        assert digest(one_shot.normal_form) == digest(served.normal_form)


class TestDatabaseDigest:
    def test_separator_bytes_in_values_cannot_collide(self):
        from repro.service.catalog import database_digest

        # Under a separator-joined serialization these two arity-2
        # relations serialize row bytes identically ("a\x1fb\x1fc"):
        left = Database.of(
            {"R": Relation.from_tuples(2, [("a\x1fb", "c")])}
        )
        right = Database.of(
            {"R": Relation.from_tuples(2, [("a", "b\x1fc")])}
        )
        assert database_digest(left) != database_digest(right)

    def test_name_boundary_cannot_collide(self):
        from repro.service.catalog import database_digest

        left = Database.of({"R\x002": Relation.empty(1)})
        right = Database.of({"R": Relation.empty(1)})
        assert database_digest(left) != database_digest(right)

    def test_row_split_cannot_collide(self):
        from repro.service.catalog import database_digest

        left = Database.of(
            {"R": Relation.from_tuples(1, [("a\x1eb",)])}
        )
        right = Database.of(
            {"R": Relation.from_tuples(1, [("a",), ("b",)])}
        )
        assert database_digest(left) != database_digest(right)

    def test_digest_is_deterministic_and_content_keyed(self):
        from repro.service.catalog import database_digest

        db = Database.of({"R": Relation.from_tuples(1, [("a",), ("b",)])})
        same = Database.of({"R": Relation.from_tuples(1, [("a",), ("b",)])})
        other = Database.of({"R": Relation.from_tuples(1, [("b",), ("a",)])})
        assert database_digest(db) == database_digest(same)
        # List order matters (Definition 3.4 equality is list equality).
        assert database_digest(db) != database_digest(other)


class TestCertifiedRegistration:
    def test_report_attached_with_certificates(self, db):
        catalog = Catalog()
        entry = catalog.register_query("swap", parse(SWAP), signature=SIG22)
        assert entry.report is not None and entry.report.ok
        assert entry.report.order == 3
        assert entry.report.fragment == "TLI=0"
        assert entry.cost is not None

    def test_order_budget_rejects_registration(self):
        catalog = Catalog()
        with pytest.raises(EvaluationError, match="TLI007"):
            catalog.register_query(
                "swap", parse(SWAP), signature=SIG22, max_order=2
            )
        assert "swap" not in [name for name, _ in catalog.queries()]

    def test_budget_at_order_passes(self):
        catalog = Catalog()
        entry = catalog.register_query(
            "swap", parse(SWAP), signature=SIG22, max_order=3
        )
        assert entry.report.ok

    def test_legacy_exceptions_preserved(self):
        catalog = Catalog()
        from repro.errors import TypeInferenceError

        with pytest.raises(TypeInferenceError):
            catalog.register_query("bad", parse(r"\x. x x"))
        with pytest.raises(QueryTermError):
            catalog.register_query(
                "wrong", parse(r"\R1. \R2. R1 (\x y T. x) o1"),
                signature=SIG22,
            )

    def test_summary_surfaces_warnings_and_cost(self, db):
        catalog = Catalog()
        # A registrable plan with a dead accumulator (warning, not error).
        dead = parse(r"\R1. \R2. \c. \n. R1 (\x y T. c x y n) n")
        entry = catalog.register_query("dead", dead, signature=SIG22)
        summary = entry.summary()
        assert summary["warnings"], summary
        assert any("TLI004" in warning for warning in summary["warnings"])
        assert "cost" in summary

    def test_database_entry_carries_stats(self, db):
        catalog = Catalog()
        entry = catalog.register_database("main", db)
        assert entry.stats is not None
        assert entry.stats.tuples == sum(
            len(relation.tuples) for _, relation in db
        )


class TestDerivedFuel:
    def test_response_reports_derived_budget(self, service):
        response = service.execute(
            QueryRequest(query="swap", database="main", engine="smallstep")
        )
        assert response.ok
        assert response.fuel_budget is not None
        assert response.steps <= response.fuel_budget
        assert "fuel_budget" in response.as_dict()

    def test_explicit_fuel_wins(self, service):
        response = service.execute(
            QueryRequest(
                query="swap", database="main", engine="smallstep", fuel=2
            )
        )
        assert response.status == "fuel_exhausted"
        assert response.fuel_budget == 2

    def test_cache_hit_preserves_budget(self, service):
        first = service.execute(QueryRequest(query="swap", database="main"))
        second = service.execute(QueryRequest(query="swap", database="main"))
        assert second.cache_hit
        assert second.fuel_budget == first.fuel_budget

    def test_uncertified_inline_plan_uses_default(self, db):
        from repro.service.runtime import DEFAULT_FUEL

        service = QueryService()
        response = service.execute(
            QueryRequest(
                query=parse(SWAP), database=db, arity=2, engine="smallstep"
            )
        )
        assert response.ok
        assert response.fuel_budget == DEFAULT_FUEL


class TestServiceClose:
    """Lifecycle regressions: close() must be idempotent, safe while
    requests are in flight, and must not let lazy pools resurrect."""

    def test_close_is_idempotent(self, service):
        assert not service.closed
        service.close()
        assert service.closed
        service.close()  # second close is a no-op, not an error
        assert service.closed

    def test_timed_request_after_close_is_an_error_response(self, service):
        service.close()
        response = service.execute(
            QueryRequest(query="swap", database="main", timeout_s=5.0)
        )
        assert response.status == "error"
        assert "closed" in response.error
        # The lazy timeout pool must not be resurrected by the request.
        assert service._timeout_pool is None

    def test_sharded_request_after_close_is_an_error_response(self, service):
        service.close()
        response = service.execute(
            QueryRequest(query="swap", database="main", shards=2)
        )
        assert response.status == "error"
        assert "closed" in response.error

    def test_close_with_inflight_requests(self, service):
        import threading

        started = threading.Event()
        release = threading.Event()
        original = service._serve

        def blocking_serve(request):
            started.set()
            assert release.wait(5.0)
            return original(request)

        service._serve = blocking_serve
        results = []

        def call():
            results.append(service.execute(
                QueryRequest(query="swap", database="main", timeout_s=10.0)
            ))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
        assert started.wait(5.0)
        service.close()  # concurrent with the blocked evaluations
        release.set()
        for thread in threads:
            thread.join(10.0)
        # Every caller got a response object back, nothing raised
        # through execute().  Evaluations already running complete
        # normally; ones still queued when close() cancelled them are
        # folded into error responses.
        assert len(results) == 3
        assert all(r.status in ("ok", "error") for r in results)
        assert any(r.status == "ok" for r in results)
        assert all(
            "closed" in r.error for r in results if r.status == "error"
        )
        assert service.closed


@pytest.fixture
def encodings(monkeypatch):
    """Every Definition 3.1 encoding built while the test runs, counted
    wherever a module of the program looks ``encode_relation`` up."""
    import sys

    from repro.db import encode

    original = encode.encode_relation
    built = []

    def counting(relation, **kwargs):
        built.append(relation)
        return original(relation, **kwargs)

    for name, module in list(sys.modules.items()):
        if (
            name.partition(".")[0] == "repro"
            and getattr(module, "encode_relation", None) is original
        ):
            monkeypatch.setattr(module, "encode_relation", counting)
    return built


class TestEncodingBoundary:
    """Encodings are the reduction engines' input format (Definition
    3.10): a set-engine answer never builds one, and a reduction engine
    encodes each relation once."""

    def test_set_engine_paths_build_no_encoding(self, encodings, db):
        service = QueryService()
        service.catalog.register_database("main", db)
        service.catalog.register_query("swap", parse(SWAP), signature=SIG22)
        service.catalog.register_query(
            "tc", transitive_closure_query("R1"), engine="ra"
        )
        swap = QueryRequest(query="swap", database="main")
        try:
            miss = service.execute(swap)
            hit = service.execute(swap)
            service.apply_update(
                "main", {"R1": Relation.from_tuples(2, [("o1", "o2")])}
            )
            fixpoint = service.execute(
                QueryRequest(query="tc", database="main")
            )
            sharded = service.execute(
                QueryRequest(query="swap", database="main", shards=2)
            )
        finally:
            service.close()
        assert [r.engine for r in (miss, hit, fixpoint, sharded)] == ["ra"] * 4
        assert hit.cache_hit and sharded.profile["shard"]["rows"]
        # The worker's side of the sharded read, run in-process.
        reply = execute_task(
            {"kind": "term", "db_digest": "d", "database": db,
             "term": parse(SWAP), "engine": "ra", "arity": 2}
        )
        assert reply["ok"]
        assert encodings == []
        # Reading a set-engine answer's term builds it then, once.
        assert miss.normal_form is hit.normal_form
        assert encodings == [miss.relation]

    def test_encoding_memo_stays_out_of_pickles(self, db):
        import pickle

        relation = db["R1"]
        shipped = pickle.dumps(relation)
        term = relation_term(relation)
        assert relation_term(relation) is term
        # A shard snapshot pickles the same bytes with or without it.
        assert pickle.dumps(relation) == shipped

    def test_reduction_engines_encode_each_relation_once(self, encodings, db):
        service = QueryService()
        service.catalog.register_database("main", db)
        service.catalog.register_query("swap", parse(SWAP), signature=SIG22)
        service.catalog.register_query("diag", parse(DIAG), signature=SIG22)
        for name in ("swap", "diag"):
            response = service.execute(
                QueryRequest(query=name, database="main", engine="nbe")
            )
            assert response.ok and not response.cache_hit
        assert encodings == [relation for _, relation in db]
        changed = Relation.from_tuples(2, [("o1", "o2")])
        service.apply_update("main", {"R1": changed})
        response = service.execute(
            QueryRequest(query="swap", database="main", engine="nbe")
        )
        assert response.ok and not response.cache_hit
        assert encodings[len(db):] == [changed]
