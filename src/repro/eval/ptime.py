"""The polynomial-time evaluator for TLI=1 fixpoint queries (Section 5.3).

Theorem 5.2 states that every TLI=1 (MLI=1) query is a PTIME query; the
paper's proof evaluates query terms with "reduction plus specialized data
structures" to force a polynomial number of steps — the construction
details fall in the part of the source text that is truncated, so this
module reconstructs the evaluator from the Section 4/5 descriptions.

**Why naive strategies blow up.**  In the compiled fixpoint term

    Fix = λR̄. FuncToList' (Crank (λf. ListToFunc' ((λR. M') (FuncToList' f)))
                            (λx̄. False))

each stage's characteristic function ``f_j`` is a redex tower over *all*
previous stages.  Naive normal-order reduction re-expands that tower for
every membership test — each test of ``f_j`` spawns |D|^k tests of
``f_{j-1}`` — so the number of reduction steps grows exponentially in the
number of stages (benchmark B4 measures exactly this on the small-step
engine).  Normalizing ``f_j`` itself is no way out either: the normal form
of ``ListToFunc r̄`` duplicates its continuation at every list element, so
it is exponentially large as a term.

**The specialized data structure: materialized stage lists.**  The paper's
construction alternates between the characteristic-function and list views
of a stage.  The list view is small (a Definition 3.1 encoding, linear in
the stage), and the composition

    G(S)  :=  FuncToList' (ListToFunc' ((λR. M') S))

maps the (normal-form) list encoding of stage ``j`` to the list encoding
of stage ``j+1``: by Church-Rosser this is exactly what the ``Crank``'s
``j+1``-st application reduces to, because ``Fix``'s stage function touches
``f`` only through ``FuncToList'``.  The evaluator therefore iterates:

    S_0     =  FuncToList' (λx̄. False)         (normalizes to λc. λn. n)
    S_{j+1} =  nbe( G(S_j) )
    output  =  S_N,   N = |D|^k  (the Crank length)

Every intermediate object is a lambda term in normal form — the evaluation
is honest reduction of the query's own subterms, just under a strategy that
materializes each stage — and each of the polynomially many stages is a
fixed-size TLI=0-style term applied to polynomial-size data, normalized by
NBE in polynomial time.  Agreement with naive reduction of the *whole*
query term is asserted by the test suite on small instances, and the final
stage is literally the query's normal form: the output tuple order and
duplicate pattern match ``FuncToList'``'s domain enumeration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.db.decode import DecodedRelation, decode_relation
from repro.db.encode import encode_database, encode_relation
from repro.db.relations import Database, Relation
from repro.errors import EvaluationError
from repro.lam.nbe import nbe_normalize_counted
from repro.lam.terms import Term, Var, app, lam
from repro.queries.fixpoint import (
    FIX_NAME,
    FixpointQuery,
    empty_characteristic_term,
    func_to_list_term,
    list_to_func_term,
)
from repro.queries.relalg_compile import active_domain_expr_term


@dataclass
class FixpointRun:
    """Outcome of a stage-materializing fixpoint evaluation."""

    relation: Relation
    decoded: DecodedRelation
    #: The final stage's term; ``None`` when no term was reduced (the
    #: set-based runner of :mod:`repro.compile.fixpoint`).
    normal_form: Optional[Term]
    stages: int
    stage_sizes: List[int]
    converged_at: Optional[int]
    #: Total NBE reduction steps across every stage normalization — the
    #: quantity the Theorem 5.1/5.2 cost certificates bound.
    nbe_steps: int = 0


def run_fixpoint_query(
    query: FixpointQuery,
    database: Database,
    *,
    style: str = "tli",
    stop_on_convergence: bool = True,
    max_depth: int = 1_000_000,
    read_trace: Optional[Set[str]] = None,
) -> FixpointRun:
    """Evaluate a fixpoint query over ``database`` in polynomial time.

    ``style`` selects which compiled term's reduction is being followed
    ("tli" uses the Copy-laundered subterms, "mli" the let-polymorphic
    ones); both produce the same stages.  With ``stop_on_convergence``
    (default) the iteration stops early once a stage repeats — sound for
    inflationary steps, and exactly how the paper argues the ``|D|^k``
    Crank length suffices.  Set it to False to run all ``|D|^k`` stages,
    mirroring the Crank literally.

    ``read_trace`` (when supplied) collects the names of the database
    relations the evaluation actually consumed — the instrumented trace
    the provenance tests compare against the static read-set.

    The evaluation is restricted to the query's *input schema*: the
    compiled tower ``λR̄. ...`` binds exactly the schema relations, so a
    database carrying extra relations must not be encoded wholesale (an
    over-applied tower leaves a stuck application spine that only fails
    at decode time).  A database *missing* a schema relation, or carrying
    it at the wrong arity, is rejected up front with a TLI024-coded
    :class:`~repro.errors.SchemaError`.
    """
    if style == "tli":
        from repro.queries.fixpoint import copy_gadget_term

        def laundered(name: str) -> Term:
            return app(
                copy_gadget_term(query.schema()[name], query.output_arity),
                Var(name),
            )
    elif style == "mli":
        def laundered(name: str) -> Term:
            return Var(name)
    else:
        raise EvaluationError(f"unknown style {style!r}")

    schema = query.schema()
    names = list(query.input_names())
    k = query.output_arity
    inputs_db = query.input_database(database)
    if read_trace is not None:
        read_trace.update(names)

    encoded_inputs = encode_database(inputs_db)

    # Materialize the active-domain list once (by Church-Rosser this is the
    # same reduction the whole-term evaluation performs lazily at every
    # FuncToList' nesting level; materializing it keeps each domain sweep a
    # walk over a literal list).
    nbe_steps = 0

    def normalize(term: Term) -> Term:
        nonlocal nbe_steps
        normal, steps = nbe_normalize_counted(term, max_depth=max_depth)
        nbe_steps += steps
        return normal

    domain_term = active_domain_expr_term(schema, laundered)
    domain_literal = normalize(
        app(lam(names, domain_term), *encoded_inputs)
    )
    func_to_list = func_to_list_term(k, domain_literal)
    list_to_func = list_to_func_term(k)

    # G(S) = FuncToList'(ListToFunc'((λR. M') S)), closed over the inputs.
    # The composition is normalized in pieces so intermediates are
    # *materialized* before anything sweeps against them — otherwise every
    # membership test would re-run the intermediate's construction, which
    # is precisely the recomputation the specialized data structures exist
    # to avoid.  By Church-Rosser the split changes nothing about the
    # result: the step is evaluated operator-by-operator (each operator
    # application normalized against materialized encodings — note that
    # ``Copy_i R_i`` normalizes to the identical encoding of ``R_i``, so
    # the laundered and plain subterms contribute the same lists), and the
    # reencoding pass runs against the materialized step output.
    reencode_map = lam(
        names + ["STAGE"],
        app(func_to_list, app(list_to_func, Var("STAGE"))),
    )
    initial = lam(
        names,
        app(func_to_list, empty_characteristic_term(k)),
    )

    crank_length = len(inputs_db.active_domain()) ** k

    from repro.eval.materialize import run_ra_query_materialized

    stage = normalize(app(initial, *encoded_inputs))
    stage_relation = decode_relation(stage, k).relation
    stage_sizes = [len(stage_relation)]
    converged_at: Optional[int] = None
    stages_run = 0
    for index in range(crank_length):
        step_db = inputs_db.with_relation(FIX_NAME, stage_relation)
        step_run = run_ra_query_materialized(
            query.effective_step(), step_db, max_depth=max_depth,
            read_trace=read_trace,
        )
        # The step output is already deduplicated here (sound because
        # ListToFunc' only ever tests membership in its list argument —
        # first-match semantics — so neither duplicates nor order of the
        # intermediate can influence any later stage; and it bounds every
        # intermediate by |D|^k tuples).
        step_relation = step_run.relation
        if step_run.steps is not None:
            nbe_steps += step_run.steps
        deduped = encode_relation(step_relation)
        next_stage = normalize(
            app(reencode_map, *encoded_inputs, deduped)
        )
        next_relation = decode_relation(next_stage, k).relation
        stages_run += 1
        stage_sizes.append(len(next_relation))
        # Stage normal forms are deterministic functions of the accepted
        # tuple set (FuncToList' enumerates the domain in a fixed order),
        # so comparing the decoded relations compares the terms without a
        # deep structural recursion.
        if next_relation == stage_relation:
            converged_at = index + 1
            stage = next_stage
            stage_relation = next_relation
            if stop_on_convergence:
                break
        stage = next_stage
        stage_relation = next_relation

    if read_trace is not None:
        # The stage relation is evaluator-internal, not a database read.
        read_trace.discard(FIX_NAME)
    decoded = decode_relation(stage, k)
    return FixpointRun(
        relation=decoded.relation,
        decoded=decoded,
        normal_form=stage,
        stages=stages_run,
        stage_sizes=stage_sizes,
        converged_at=converged_at,
        nbe_steps=nbe_steps,
    )
