"""The plan compiler (`repro.compile`): differential and fallback tests.

The compiled set-backed engine must be *invisible* semantically: for any
certified plan, the relation it computes equals the one NBE reduction
computes — and equals what the sharded path merges, for any shard count.
The differential tests here generate random relational-algebra plans,
push them through the Theorem 4.1 compiler into TLI=0 terms, and compare

* the compiled executor (``compile_term_plan(...).execute``),
* NBE reduction (``run_once(engine="nbe")``), and
* the service with ``shards=k`` for k in {1, 2, 3}

as tuple sets.  Fixpoint specs get the same treatment against the
Theorem 5.2 stage evaluator.  The fallback taxonomy and the runtime
degradation path (``"ra"`` falling back to NBE, with metrics) are
covered explicitly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import (
    CompileFallback,
    compile_decision,
    compile_term_plan,
    run_fixpoint_query_compiled,
)
from repro.datalog.compile import datalog_to_fixpoint
from repro.db.generators import random_graph_relation
from repro.db.relations import Database, Relation
from repro.errors import EvaluationError
from repro.eval.ptime import run_fixpoint_query
from repro.lam.parser import parse
from repro.queries.language import QueryArity
from repro.queries.relalg_compile import build_ra_query
from repro.relalg.ast import (
    Base,
    ColumnEqualsColumn,
    ColumnEqualsConst,
    CondAnd,
    CondNot,
    CondOr,
    Difference,
    Intersection,
    Product,
    Project,
    RAExpr,
    Select,
    Union,
    adom,
)
from repro.service import QueryRequest, QueryService

from tests.test_fixpoint_random import random_programs

SCHEMA = {"R": 2, "S": 2}
INPUT_NAMES = ("R", "S")
CONSTANTS = ("o1", "o2", "o3", "o4")

SWAP = r"\R. \c. \n. R (\x y T. c y x T) n"


def make_database(seed: int) -> Database:
    r = random_graph_relation(4, 0.4, seed=seed)
    s = random_graph_relation(4, 0.4, seed=seed + 1000)
    return Database.of(
        {"R": r if len(r) else Relation(2, (("o1", "o2"),)), "S": s}
    )


# -- random plan generator ---------------------------------------------------


@st.composite
def random_conditions(draw, arity: int):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return ColumnEqualsColumn(
            draw(st.integers(0, arity - 1)), draw(st.integers(0, arity - 1))
        )
    if kind == 1:
        return ColumnEqualsConst(
            draw(st.integers(0, arity - 1)), draw(st.sampled_from(CONSTANTS))
        )
    if kind == 2:
        return CondAnd(
            draw(random_conditions(arity)), draw(random_conditions(arity))
        )
    if kind == 3:
        return CondOr(
            draw(random_conditions(arity)), draw(random_conditions(arity))
        )
    return CondNot(draw(random_conditions(arity)))


@st.composite
def random_plans(draw, depth: int = 0):
    """A random RAExpr over R/2, S/2; returns ``(expr, arity)``."""
    if depth >= 2 or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 5)) == 0:
            return adom(), 1
        return Base(draw(st.sampled_from(INPUT_NAMES))), 2
    op = draw(st.integers(0, 5))
    left, left_arity = draw(random_plans(depth=depth + 1))
    if op == 0:
        columns = tuple(
            draw(st.integers(0, left_arity - 1))
            for _ in range(draw(st.integers(1, 2)))
        )
        return Project(left, columns), len(columns)
    if op == 1:
        return Select(left, draw(random_conditions(left_arity))), left_arity
    right, right_arity = draw(random_plans(depth=depth + 1))
    if op == 2:
        return Product(left, right), left_arity + right_arity
    if left_arity != right_arity:
        # Set ops need equal arities; project the wider side down.
        if left_arity > right_arity:
            left = Project(left, tuple(range(right_arity)))
            left_arity = right_arity
        else:
            right = Project(right, tuple(range(left_arity)))
    combine = {3: Union, 4: Intersection, 5: Difference}[op]
    return combine(left, right), left_arity


def compile_inputs(expr: RAExpr, arity: int):
    term = build_ra_query(expr, INPUT_NAMES, SCHEMA)
    return term, QueryArity((2, 2), arity)


# -- differential: compiled vs NBE vs sharded --------------------------------


@pytest.fixture(scope="module")
def shard_service():
    service = QueryService(shard_workers=3)
    service.catalog.register_database("db", make_database(7))
    yield service
    service.close()


@given(random_plans(), st.integers(min_value=0, max_value=50))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compiled_matches_nbe_on_random_plans(plan, seed):
    from repro.service.runtime import run_once

    expr, arity = plan
    term, signature = compile_inputs(expr, arity)
    database = make_database(seed)
    decoded, _ = run_once(term, database, arity=arity, engine="nbe")
    try:
        compiled = compile_term_plan(term, signature.inputs, arity)
    except CompileFallback:
        # Random plans should essentially always lower — the Theorem 4.1
        # compiler emits exactly the liftable grammar — but a fallback
        # must never be wrong, only slow, so nothing to compare here.
        return
    run = compiled.execute(database)
    assert run.relation.same_set(decoded.relation), str(expr)
    # The executor also preserves the *raw* emission order of reduction.
    assert run.decoded.raw_tuples == decoded.raw_tuples, str(expr)


@given(
    random_plans(),
    st.integers(min_value=0, max_value=20),
    st.sampled_from([1, 2, 3]),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_sharded_ra_matches_nbe(shard_service, plan, seed, shards):
    from repro.service.runtime import run_once

    expr, arity = plan
    term, signature = compile_inputs(expr, arity)
    shard_service.catalog.register_query("q", term, signature=signature)
    database = shard_service.catalog.get_database("db").database
    baseline, _ = run_once(term, database, arity=arity, engine="nbe")
    response = shard_service.execute(
        QueryRequest(query="q", database="db", shards=shards)
    )
    assert response.ok, response.error
    assert response.relation.same_set(baseline.relation), str(expr)


@given(random_programs(), st.integers(min_value=0, max_value=100))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compiled_fixpoint_matches_nbe_fixpoint(program, seed):
    graph = random_graph_relation(4, 0.35, seed=seed)
    vertices = Relation.unary(
        sorted({value for row in graph.tuples for value in row}) or ["o1"]
    )
    db = Database.of({"e": graph, "v": vertices})
    query = datalog_to_fixpoint(program)
    nbe = run_fixpoint_query(query, db)
    compiled = run_fixpoint_query_compiled(query, db)
    assert compiled.relation.tuples == nbe.relation.tuples, str(program)
    assert compiled.converged_at == nbe.converged_at
    assert compiled.stage_sizes == nbe.stage_sizes


# -- fallback taxonomy -------------------------------------------------------


class TestFallbacks:
    def test_constructor_arity_mismatch_falls_back(self):
        term = parse(SWAP)
        with pytest.raises(CompileFallback) as exc:
            compile_term_plan(term, (2,), 3)
        assert exc.value.reason == "constructor-arity"

    def test_missing_input_binders_fall_back(self):
        term = parse(r"\n. n")
        with pytest.raises(CompileFallback) as exc:
            compile_term_plan(term, (2, 2), 2)
        assert exc.value.reason == "missing-input-binders"

    def test_decision_never_raises(self):
        decision = compile_decision(parse(SWAP), (2,), 3)
        assert not decision.compiled
        assert decision.status == "fallback"
        assert decision.reason == "constructor-arity"
        payload = decision.as_dict()
        assert payload["status"] == "fallback"
        assert "constructor-arity" in payload["summary"]

    def test_ra_engine_requires_database_and_arity(self):
        from repro.service.engines import evaluate_term_query

        with pytest.raises(EvaluationError):
            evaluate_term_query(parse(SWAP), (), engine="ra")

    def test_fallback_decisions_are_memoized(self):
        term = parse(r"\R. \c. \n. R (\x y T. c x y T) n")
        first = compile_decision(term, (2,), 3)
        second = compile_decision(term, (2,), 3)
        assert first.reason == second.reason == "constructor-arity"

    def test_hot_plan_outlives_more_than_256_other_compiles(self):
        # The memo evicts its least recently used plan: a plan looked up
        # between every other compile is never the one to go.
        hot = parse(SWAP)
        compiled = compile_term_plan(hot, (2,), 2)
        cold = parse(r"\n. n")
        for output_arity in range(1, 300):
            with pytest.raises(CompileFallback):
                compile_term_plan(cold, (2, 2), output_arity)
            assert compile_term_plan(hot, (2,), 2) is compiled


# -- service integration -----------------------------------------------------


class TestServiceIntegration:
    def make_service(self):
        service = QueryService()
        service.catalog.register_database("db", make_database(3))
        return service

    def test_registration_auto_selects_ra_and_reports_tli028(self):
        service = self.make_service()
        entry = service.catalog.register_query(
            "swap", parse(SWAP), signature=QueryArity((2,), 2)
        )
        assert entry.engine == "ra"
        assert entry.compiled is not None and entry.compiled.compiled
        assert "TLI028" in entry.report.codes()
        plans = service.registry.get("repro_compile_plans_total")
        assert plans.value(status="compiled", kind="term") == 1

    def test_ra_result_matches_nbe_and_counts_compiled_path(self):
        service = self.make_service()
        service.catalog.register_query(
            "swap", parse(SWAP), signature=QueryArity((2,), 2)
        )
        db2 = Database.of(
            {"R": service.catalog.get_database("db").database["R"]}
        )
        ra = service.execute(QueryRequest(query="swap", database=db2))
        nbe = service.execute(
            QueryRequest(query="swap", database=db2, engine="nbe")
        )
        assert ra.ok and nbe.ok
        assert ra.engine == "ra" and nbe.engine == "nbe"
        assert ra.relation.same_set(nbe.relation)
        # Compiled operations are bounded by reduction steps, so the
        # certified envelope holds a fortiori.
        assert ra.steps <= nbe.steps
        requests = service.registry.get("repro_compile_requests_total")
        assert requests.value(path="compiled") == 1
        service.close()

    def test_inline_term_with_ra_engine_falls_back_to_nbe(self):
        service = self.make_service()
        db = Database.of(
            {"R": service.catalog.get_database("db").database["R"]}
        )
        # Inline terms carry no certified output arity, so "ra" cannot
        # run; the runtime degrades to NBE and counts the degradation.
        response = service.execute(
            QueryRequest(query=parse(SWAP), database=db, engine="ra")
        )
        assert response.ok
        assert response.engine == "nbe"
        fallbacks = service.registry.get(
            "repro_compile_runtime_fallbacks_total"
        )
        assert fallbacks.value() == 1
        requests = service.registry.get("repro_compile_requests_total")
        assert requests.value(path="fallback") == 1
        service.close()

    def test_explain_carries_compile_decision(self):
        service = self.make_service()
        service.catalog.register_query(
            "swap", parse(SWAP), signature=QueryArity((2,), 2)
        )
        db = Database.of(
            {"R": service.catalog.get_database("db").database["R"]}
        )
        response = service.execute(
            QueryRequest(query="swap", database=db, explain=True)
        )
        compile_section = response.explain["static"]["compile"]
        assert compile_section["status"] == "compiled"
        assert compile_section["kind"] == "term"
        assert "scan" in compile_section["summary"]
        assert response.explain["observed"]["engine"] == "ra"
        service.close()

    def test_fixpoint_ra_engine_runs_set_based(self):
        from repro.queries.fixpoint import transitive_closure_query

        service = QueryService()
        edges = random_graph_relation(5, 0.3, seed=11)
        service.catalog.register_database(
            "g", Database.of({"E": edges})
        )
        query = transitive_closure_query("E")
        service.catalog.register_query("tc", query)
        entry = service.catalog.get_query("tc")
        # Fixpoint default stays the stage evaluator; "ra" is opt-in.
        assert entry.engine == "fixpoint"
        assert entry.compiled is not None and entry.compiled.compiled
        baseline = service.execute(QueryRequest(query="tc", database="g"))
        compiled = service.execute(
            QueryRequest(query="tc", database="g", engine="ra")
        )
        assert baseline.ok and compiled.ok
        assert compiled.engine == "ra"
        assert compiled.relation.tuples == baseline.relation.tuples
        assert compiled.stages == baseline.stages
        assert compiled.steps < baseline.steps
        service.close()
