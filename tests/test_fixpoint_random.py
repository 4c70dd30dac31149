"""Property test: random single-IDB Datalog programs through every engine.

Generates random safe programs over a binary EDB ``e`` and unary EDB ``v``
with one recursive IDB ``p``, and checks that the Theorem 5.2 evaluator of
the compiled TLI=1 term computes the same relation as the bottom-up
Datalog engine under inflationary semantics — across random databases.
Both staged service engines (``fixpoint`` and ``ra``), which run the one
stage loop with their engine-table stage, must then return that
evaluator's tuples in its order, its stages and its normal form.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Literal, Program, RVar, Rule
from repro.datalog.compile import datalog_to_fixpoint
from repro.datalog.engine import evaluate_program
from repro.db.generators import random_graph_relation
from repro.compile.fixpoint import run_fixpoint_query_compiled
from repro.db.relations import Database, Relation
from repro.errors import SchemaError
from repro.eval.ptime import run_fixpoint_query
from repro.lam.terms import digest
from repro.service import QueryRequest, QueryService
from repro.service.engines import ENGINE_TABLE

IDB_ARITY = 2
VARS = ["X", "Y", "Z"]


@st.composite
def random_programs(draw) -> Program:
    """1-3 safe rules for ``p/2`` over ``e/2``, ``v/1``, and ``p`` itself."""
    rules = []
    rule_count = draw(st.integers(min_value=1, max_value=3))
    for _ in range(rule_count):
        body = []
        literal_count = draw(st.integers(min_value=1, max_value=3))
        for _ in range(literal_count):
            predicate = draw(st.sampled_from(["e", "p", "v"]))
            arity = 1 if predicate == "v" else 2
            terms = tuple(
                RVar(draw(st.sampled_from(VARS))) for _ in range(arity)
            )
            positive = predicate != "p" and draw(st.booleans())
            # Negation only on EDBs (keeps the inflationary comparison
            # deterministic and the rule obviously safe-checkable).
            body.append(
                Literal(predicate, terms, positive or predicate == "p")
            )
        head_vars = tuple(
            RVar(draw(st.sampled_from(VARS))) for _ in range(IDB_ARITY)
        )
        try:
            rules.append(Rule(Literal("p", head_vars), tuple(body)))
        except SchemaError:
            # Unsafe draw (head var unbound / negated var unbound):
            # replace with a trivially safe rule to keep the program
            # non-empty.
            rules.append(
                Rule(
                    Literal("p", (RVar("X"), RVar("Y"))),
                    (Literal("e", (RVar("X"), RVar("Y"))),),
                )
            )
    return Program.of(rules, {"e": 2, "v": 1})


@given(
    random_programs(),
    st.integers(min_value=0, max_value=300),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_lambda_fixpoint_matches_datalog_engine(program, seed):
    graph = random_graph_relation(4, 0.35, seed=seed)
    vertices = Relation.unary(
        sorted({value for row in graph.tuples for value in row})
        or ["o1"]
    )
    db = Database.of({"e": graph, "v": vertices})
    baseline = evaluate_program(
        program, db, semantics="inflationary"
    )["p"]
    query = datalog_to_fixpoint(program)
    run = run_fixpoint_query(query, db)
    assert run.relation.same_set(baseline), str(program)
    with QueryService() as service:
        for engine in ("fixpoint", "ra"):
            response = service.execute(
                QueryRequest(query=query, database=db, engine=engine)
            )
            assert response.ok, (engine, response.error)
            assert response.relation.tuples == run.relation.tuples, (
                engine, str(program),
            )
            assert response.stages == run.stages, engine
            assert digest(response.normal_form) == digest(run.normal_form)
            staged = run_fixpoint_query_compiled(
                query, db, stage=ENGINE_TABLE[engine].stage
            )
            assert staged.stage_sizes == run.stage_sizes, engine
            assert staged.converged_at == run.converged_at, engine
