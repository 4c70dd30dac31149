"""Tests for the static read-set / schema-provenance layer (TLI023-TLI027).

Covers the provenance certificates themselves, the schema contract they
induce (registration warnings, admission rejection, the fixed
multi-relation fixpoint bug), relation-granular cache invalidation keyed
on the read-set's version sub-vector, and the soundness property that the
relations an evaluation actually decodes are a subset of the static
read-set.
"""

import pytest

from repro.analysis import (
    analyze,
    check_schema_contract,
    database_schema,
    fixpoint_provenance,
    operator_library_targets,
    read_set_stats,
    scanned_relation_names,
    term_provenance,
    version_subvector,
)
from repro.analysis.cost import DatabaseStats
from repro.db.generators import random_database
from repro.db.relations import Database, Relation
from repro.errors import SchemaError
from repro.eval.driver import run_query
from repro.eval.ptime import run_fixpoint_query
from repro.lam.parser import parse
from repro.queries.fixpoint import transitive_closure_query
from repro.queries.language import QueryArity
from repro.service import QueryRequest, QueryService
from repro.service.cache import WILDCARD, CachedResult, ResultCache

SWAP = r"\R1. \R2. \c. \n. R1 (\x y T. c y x T) n"  # scans R1 only
INTERSECT = (
    r"\R1. \R2. \c. \n. R1 (\x y T. "
    r"R2 (\u v A. Eq x u (Eq y v (c x y T) A) A) T) n"
)
SIG22 = QueryArity((2, 2), 2)


def edges(*pairs):
    return Relation.from_tuples(2, pairs)


@pytest.fixture
def two_rel_db():
    return Database.of({
        "E": edges(("a", "b"), ("b", "c")),
        "S": Relation.unary(["a", "d"]),
    })


# ---------------------------------------------------------------------------
# Read-set certificates (TLI023 / TLI027)
# ---------------------------------------------------------------------------

class TestTermProvenance:
    def test_swap_scans_first_input_only(self):
        report = analyze(parse(SWAP), name="swap", signature=SIG22)
        prov = report.provenance
        assert prov is not None and prov.exact and prov.positional
        assert "TLI023" in report.codes()
        by_name = {read.name: read for read in prov.reads}
        assert by_name["R1"].scanned
        assert not by_name["R2"].scanned
        assert by_name["R2"].scans.hi == 0
        assert [read.name for read in prov.scanned_reads()] == ["R1"]

    def test_intersect_scans_both(self):
        report = analyze(
            parse(INTERSECT), name="intersect", signature=SIG22
        )
        prov = report.provenance
        assert prov is not None and prov.exact
        assert all(read.scanned for read in prov.reads)

    def test_read_arities_come_from_signature(self):
        report = analyze(parse(SWAP), name="swap", signature=SIG22)
        assert [read.arity for read in report.provenance.reads] == [2, 2]

    def test_fallback_is_conservative_top(self, monkeypatch):
        # Force the absint spine walk to abort: the certificate must
        # degrade to "every input, unbounded" (TLI027), never silently
        # claim exactness.
        import repro.analysis.absint as absint

        monkeypatch.setattr(absint, "WALK_SIZE_CAP", 1)
        report = analyze(parse(SWAP), name="swap", signature=SIG22)
        prov = report.provenance
        assert prov is not None and not prov.exact
        assert "TLI027" in report.codes()
        assert "TLI023" not in report.codes()
        assert all(
            read.scanned and read.scans.hi is None for read in prov.reads
        )

    def test_fixpoint_reads_named_inputs(self):
        prov = fixpoint_provenance(transitive_closure_query("E"))
        assert prov.exact and not prov.positional
        assert [read.name for read in prov.reads] == ["E"]
        read = prov.reads[0]
        assert read.arity == 2 and read.scanned and read.scans.hi is None


# ---------------------------------------------------------------------------
# Schema contracts (TLI024 / TLI025)
# ---------------------------------------------------------------------------

class TestSchemaContract:
    def test_positional_count_mismatch(self):
        report = analyze(
            parse(SWAP),
            name="swap",
            signature=SIG22,
            target_schema=(("E", 2), ("S", 1), ("T", 2)),
        )
        assert "TLI024" in report.codes()

    def test_positional_arity_mismatch(self):
        report = analyze(
            parse(SWAP),
            name="swap",
            signature=SIG22,
            target_schema=(("E", 2), ("S", 3)),
        )
        assert "TLI024" in report.codes()

    def test_unused_relation(self):
        report = analyze(
            parse(SWAP),
            name="swap",
            signature=SIG22,
            target_schema=(("E", 2), ("S", 2)),
        )
        assert "TLI024" not in report.codes()
        assert "TLI025" in report.codes()

    def test_matching_schema_is_clean(self):
        report = analyze(
            parse(INTERSECT),
            name="intersect",
            signature=SIG22,
            target_schema=(("E", 2), ("S", 2)),
        )
        codes = report.codes()
        assert "TLI024" not in codes and "TLI025" not in codes

    def test_fixpoint_contract(self, two_rel_db):
        prov = fixpoint_provenance(transitive_closure_query("E"))
        mismatches, unused = check_schema_contract(
            prov, database_schema(two_rel_db)
        )
        assert mismatches == []
        assert any("'S'" in message for message in unused)
        mismatches, _ = check_schema_contract(prov, (("S", 1),))
        assert any("missing" in message for message in mismatches)
        mismatches, _ = check_schema_contract(prov, (("E", 3),))
        assert any("arity" in message for message in mismatches)

    def test_catalog_cross_check_warns(self, two_rel_db):
        service = QueryService()
        service.catalog.register_database("main", two_rel_db)
        entry = service.catalog.register_query(
            "swap", parse(SWAP), signature=SIG22
        )
        # E/S have arities (2, 1): input 1 mismatches, so the catalog
        # carries a TLI024 *warning* (registration still succeeds).
        assert "TLI024" in entry.report.codes()


# ---------------------------------------------------------------------------
# The ROADMAP bug: fixpoint plans on multi-relation databases
# ---------------------------------------------------------------------------

class TestFixpointMultiRelation:
    def test_closure_matches_single_relation_run(self, two_rel_db):
        tc = transitive_closure_query("E")
        single = run_fixpoint_query(
            tc, Database.of({"E": two_rel_db["E"]})
        )
        multi = run_fixpoint_query(tc, two_rel_db)
        assert multi.relation.same_set(single.relation)
        assert ("a", "c") in multi.relation

    def test_read_trace_is_exactly_the_edge_relation(self, two_rel_db):
        trace = set()
        run_fixpoint_query(
            transitive_closure_query("E"), two_rel_db, read_trace=trace
        )
        assert trace == {"E"}

    def test_missing_relation_is_a_tli024_error(self):
        with pytest.raises(SchemaError, match="TLI024"):
            run_fixpoint_query(
                transitive_closure_query("E"),
                Database.of({"S": Relation.unary(["a"])}),
            )

    def test_arity_mismatch_is_a_tli024_error(self):
        with pytest.raises(SchemaError, match="arity"):
            run_fixpoint_query(
                transitive_closure_query("E"),
                Database.of({"E": Relation.unary(["a"])}),
            )

    def test_result_independent_of_extra_relations(self, two_rel_db):
        tc = transitive_closure_query("E")
        base = run_fixpoint_query(tc, two_rel_db)
        grown = two_rel_db.with_relation(
            "S", Relation.unary(["a", "b", "c", "d"])
        )
        assert run_fixpoint_query(tc, grown).relation.same_set(
            base.relation
        )


# ---------------------------------------------------------------------------
# Every engine against multi-relation databases
# ---------------------------------------------------------------------------

class TestMultiRelationEngines:
    @pytest.mark.parametrize("engine", ["nbe", "smallstep"])
    def test_term_engines(self, engine):
        db = random_database([2, 2], [6, 5], universe_size=5, seed=7)
        run = run_query(parse(SWAP), db, arity=2, engine=engine)
        expected = {(y, x) for x, y in db["R1"]}
        assert run.relation.as_set() == frozenset(expected)

    def test_service_paths(self):
        db = random_database([2, 2], [6, 5], universe_size=5, seed=7)
        service = QueryService()
        service.catalog.register_database("main", db)
        service.catalog.register_query(
            "swap", parse(SWAP), signature=SIG22
        )
        service.catalog.register_query(
            "tc", transitive_closure_query("R1")
        )
        with service:
            for query in ("swap", "tc"):
                response = service.execute(
                    QueryRequest(query=query, database="main")
                )
                assert response.ok, response.error
            sharded = service.execute(
                QueryRequest(query="swap", database="main", shards=2)
            )
            assert sharded.ok, sharded.error

    def test_service_rejects_contract_mismatch(self, two_rel_db):
        service = QueryService()
        service.catalog.register_database("main", two_rel_db)
        service.catalog.register_query(
            "swap", parse(SWAP), signature=SIG22
        )
        response = service.execute(
            QueryRequest(query="swap", database="main")
        )
        assert not response.ok
        assert "TLI024" in response.error


# ---------------------------------------------------------------------------
# Per-relation version vectors
# ---------------------------------------------------------------------------

class TestCatalogVersions:
    def test_fresh_registration_is_uniform(self, two_rel_db):
        service = QueryService()
        entry = service.catalog.register_database("main", two_rel_db)
        assert dict(entry.versions) == {"E": 1, "S": 1}

    def test_apply_bumps_only_touched(self, two_rel_db):
        service = QueryService()
        first = service.catalog.register_database("main", two_rel_db)
        entry, touched = service.catalog.apply(
            "main", {"S": Relation.unary(["z"])}
        )
        assert touched == ("S",)
        assert entry.version == 2
        assert entry.relation_version("S") == 2
        assert entry.relation_version("E") == 1
        # The untouched relation keeps its registration-time encoding.
        assert entry.encoded[list(entry.database.names).index("E")] is (
            first.encoded[list(first.database.names).index("E")]
        )

    def test_noop_apply_touches_nothing(self, two_rel_db):
        service = QueryService()
        service.catalog.register_database("main", two_rel_db)
        _, touched = service.catalog.apply(
            "main", {"E": two_rel_db["E"]}
        )
        assert touched == ()

    def test_apply_can_add_a_relation(self, two_rel_db):
        service = QueryService()
        service.catalog.register_database("main", two_rel_db)
        entry, touched = service.catalog.apply(
            "main", {"T": Relation.unary(["q"])}
        )
        assert touched == ("T",)
        assert "T" in entry.database


# ---------------------------------------------------------------------------
# Cache keys and relation-granular invalidation
# ---------------------------------------------------------------------------

def _cached(version=1):
    run = run_query(
        parse(SWAP),
        random_database([2, 2], [3, 3], universe_size=4, seed=1),
        arity=2,
    )
    return CachedResult(
        relation=run.relation,
        decoded=run.decoded,
        normal_form=run.normal_form,
        engine="nbe",
        steps=None,
        stages=None,
        compute_wall_ms=0.0,
        database_version=version,
    )


class TestVersionKeys:
    def test_subvector_names_only_scanned_relations(self):
        db = random_database([2, 2], [4, 4], universe_size=4, seed=2)
        prov = analyze(
            parse(SWAP), name="swap", signature=SIG22
        ).provenance
        assert scanned_relation_names(prov, db) == ("R1",)
        key = version_subvector(prov, db, (("R1", 3), ("R2", 7)), 7)
        assert key == (("R1", 3),)

    def test_wildcard_without_provenance(self):
        db = random_database([2], [3], universe_size=4, seed=2)
        assert version_subvector(None, db, (("R1", 2),), 5) == (
            (WILDCARD, 5),
        )

    def test_restricted_stats_shrink(self):
        db = random_database([2, 2], [4, 9], universe_size=6, seed=3)
        prov = analyze(
            parse(SWAP), name="swap", signature=SIG22
        ).provenance
        restricted = read_set_stats(prov, db)
        full = DatabaseStats.of(db)
        assert restricted.tuples < full.tuples
        assert restricted.relations == 1

    def test_invalidate_relations_granularity(self):
        cache = ResultCache(capacity=16)
        survivor = ("q1", "main", (("R1", 1),), "nbe")
        doomed = ("q2", "main", (("R2", 1),), "nbe")
        wildcard = ("q4", "main", ((WILDCARD, 1),), "nbe")
        other_db = ("q5", "other", (("R2", 1),), "nbe")
        for key in (survivor, doomed, wildcard, other_db):
            cache.put(key, _cached())
        dropped = cache.invalidate_relations("main", ["R2"])
        assert dropped == 2
        assert cache.get(survivor) is not None
        assert cache.get(other_db) is not None
        assert cache.get(doomed) is None
        assert cache.get(wildcard) is None


class TestGranularInvalidation:
    @pytest.fixture
    def service(self):
        db = random_database([2, 2], [6, 5], universe_size=5, seed=11)
        svc = QueryService()
        svc.catalog.register_database("main", db)
        svc.catalog.register_query("swap", parse(SWAP), signature=SIG22)
        return svc

    def test_unscanned_bump_preserves_cache(self, service):
        request = QueryRequest(query="swap", database="main")
        first = service.execute(request)
        assert first.ok and not first.cache_hit
        service.apply_update("main", {"R2": edges(("z", "z"))})
        second = service.execute(request)
        assert second.ok and second.cache_hit
        assert second.relation.same_set(first.relation)
        assert second.database_version == 2
        stats = service.cache.stats()
        assert stats.provenance_saves == 1

    def test_scanned_bump_recomputes(self, service):
        request = QueryRequest(query="swap", database="main")
        service.execute(request)
        service.apply_update(
            "main", {"R1": edges(("p", "q"))}
        )
        response = service.execute(request)
        assert response.ok and not response.cache_hit
        assert response.relation.as_set() == frozenset({("q", "p")})
        assert service.cache.stats().provenance_saves == 0

    def test_provenance_saves_metric_exported(self, service):
        request = QueryRequest(query="swap", database="main")
        service.execute(request)
        service.apply_update("main", {"R2": edges(("z", "z"))})
        service.execute(request)
        text = service.registry.render_prometheus()
        assert "repro_cache_provenance_saves_total 1" in text


# ---------------------------------------------------------------------------
# Soundness: decoded relations are a subset of the static read-set
# ---------------------------------------------------------------------------

class TestReadSetSoundness:
    def test_fixpoint_trace_subset_of_certificate(self, two_rel_db):
        query = transitive_closure_query("E")
        prov = fixpoint_provenance(query)
        declared = {read.name for read in prov.scanned_reads()}
        trace = set()
        run_fixpoint_query(query, two_rel_db, read_trace=trace)
        assert trace <= declared

    @pytest.mark.parametrize(
        "target",
        [
            t for t in operator_library_targets()
            if t.signature is not None
        ],
        ids=lambda t: t.name,
    )
    def test_unscanned_inputs_cannot_affect_results(self, target):
        # The certificate claims unscanned inputs are result-independent
        # (that is what licenses surviving their version bumps): perturb
        # each unscanned relation and demand a bit-identical result.
        prov = analyze(
            target.plan, name=target.name, signature=target.signature
        ).provenance
        assert prov is not None and prov.exact
        arities = list(target.signature.inputs)
        db = random_database(
            arities, [4] * len(arities), universe_size=5, seed=13
        )
        base = run_query(
            target.plan, db, arity=target.signature.output
        )
        names = list(db.names)
        for read in prov.reads:
            if read.scanned:
                continue
            name = names[read.position]
            grown = db.with_relation(
                name,
                Relation.from_any_order(
                    db[name].arity,
                    list(db[name])
                    + [("o1",) * db[name].arity],
                ),
            )
            perturbed = run_query(
                target.plan, grown, arity=target.signature.output
            )
            assert perturbed.normal_form == base.normal_form, (
                f"{target.name}: unscanned input {name} changed the "
                f"result"
            )
