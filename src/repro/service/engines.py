"""The engine table: how each engine answers a term plan and runs a stage.

:data:`ENGINE_TABLE` gives, for each engine name, the two callables the
runtime, the catalog and the shard workers dispatch through:

==================  ===================================  ==============================
engine              ``term``: answers a term plan        ``stage``: one fixpoint stage
==================  ===================================  ==============================
``"nbe"``           normalization by evaluation          none
``"smallstep"``     small-step, normal order             none
``"applicative"``   small-step, applicative order        none
``"ra"``            the plan compiler, NBE fallback      the set stage (``set_stage``)
``"fixpoint"``      none                                 the NBE-materialized stage
==================  ===================================  ==============================

:func:`runs_staged` reads it once per (plan, engine) pair, for the
catalog at registration and for :class:`~repro.service.catalog.Binding`
per request: a plan with a fixpoint spec runs stage by stage on an
engine with a stage (Theorem 5.2, and the only shape a sharded fixpoint
has: the stage barrier is what makes broadcasting the fixpoint variable
sound); a plan with a term runs as a whole term on an engine that
answers terms (a registered fixpoint plan's compiled tower included);
any other pair is rejected with one error naming the engines that can
run the plan.

**Term plans.**  A row's ``term`` takes ``(query, inputs, *, fuel,
max_depth, observer, output_arity)`` and returns an
:class:`EngineResult`; :func:`evaluate_term_query` and the shard workers
call it.

* ``"nbe"`` — normalization by evaluation (:mod:`repro.lam.nbe`), the
  performance normalizer and the default;
* ``"smallstep"`` — the reference small-step normalizer, normal order,
  with step counts (:mod:`repro.lam.reduce`);
* ``"applicative"`` — small-step, applicative order;
* ``"ra"`` — the plan compiler (:mod:`repro.compile`): the certified
  plan is lowered to a set-backed relational-algebra program and run
  directly on the database relations — no beta-reduction.  Requires the
  database itself (the plan operates on relations, not on encoded
  terms).  A plan that cannot run there — no certified output arity, or
  a shape the lowering does not recognize — falls back to NBE: same
  relation, reduction semantics, and the :class:`EngineResult` names
  ``"nbe"`` as the engine that ran and says why in ``fallback``.  The
  service runtime and the shard workers both rely on this one fallback.

**Fixpoint stages.**  A row's ``stage`` is a
:data:`repro.compile.fixpoint.Stage`: the step over the inputs with the
current stage bound to ``__FIX__``, to the next stage and its work.
Both staged engines run on the one Theorem 5.2 loop,
:func:`repro.compile.fixpoint.run_fixpoint_query_compiled`, which owns
the crank, convergence and ``FuncToList'`` order: in process the
runtime hands it the row's stage, and a sharded request hands it a
fan-out stage whose shard tasks run the row's stage.  ``"ra"`` evaluates
the step on sets and counts tuples; ``"fixpoint"`` materializes each
operator of the step through NBE and counts reduction steps.  The
whole-stage evaluator :func:`repro.eval.ptime.run_fixpoint_query` is
not on this path: it is the Theorem 5.2 oracle the tests compare both
engines against.

**Encodings live here.**  The Definition 3.1 encodings ``r̄1 ... r̄l``
are the input format of the three reduction engines and of nothing
else, so this module is where the serving path builds them: on first
use by a reduction engine (or ``"ra"``'s NBE fallback), memoized on the
immutable :class:`~repro.db.relations.Relation` (:func:`relation_term`).
An unchanged relation is therefore encoded once across updates, cache
hits and shard tasks, and a relation that only ``"ra"`` reads is never
encoded.  ``"ra"`` hands back the relation it computed; its term, when
someone asks for it, is rebuilt from that relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.compile.fixpoint import (
    DEFAULT_MAX_DEPTH,
    Observer,
    Stage,
    set_stage,
)
from repro.db.decode import DecodedRelation
from repro.db.encode import encode_relation
from repro.db.relations import Database, Relation
from repro.errors import EvaluationError, SchemaError
from repro.lam.nbe import nbe_normalize_counted
from repro.lam.reduce import DEFAULT_FUEL, Strategy, normalize
from repro.lam.terms import Term, app
from repro.relalg.ast import RAExpr

#: The compiled set-backed engine's name.
RA_ENGINE = "ra"

#: The Theorem 5.2 stage-materializing engine's name (fixpoint specs only).
FIXPOINT_ENGINE = "fixpoint"

#: Answers one term plan: ``(query, inputs, *, fuel, max_depth, observer,
#: output_arity)`` to an :class:`EngineResult`.
TermRun = Callable[..., "EngineResult"]


@dataclass(frozen=True)
class Engine:
    """One row of :data:`ENGINE_TABLE`: how the engine answers a term plan
    and the fixpoint stage it runs (``None``: it does neither), and
    whether it runs the plan compiler's set-backed code (the requests it
    serves that way count as ``compiled`` in
    ``repro_compile_requests_total``)."""

    term: Optional[TermRun] = None
    stage: Optional[Stage] = None
    compiled: bool = False


@dataclass(frozen=True)
class EngineResult:
    """An engine's answer plus how much work reaching it took.

    A reduction engine reaches ``reduced_form`` and leaves decoding it to
    the caller (Lemma 3.2); ``"ra"`` hands over the relation it computed
    as ``decoded`` and reduces no term at all.  ``steps`` counts
    contracted redexes for the small-step engines, beta/delta/let
    evaluation steps for NBE (see
    :func:`repro.lam.nbe.nbe_normalize_counted`) and executor operations
    for ``"ra"``.  ``engine`` is the engine that ran; ``fallback`` is the
    reason an ``"ra"`` request ran on NBE instead.
    """

    engine: str
    steps: Optional[int] = None
    reduced_form: Optional[Term] = None
    decoded: Optional[DecodedRelation] = None
    fallback: Optional[str] = None

    @property
    def normal_form(self) -> Term:
        """The result as a term: the reduced normal form, or for ``"ra"``
        the encoding of its relation, built on first read."""
        if self.reduced_form is not None:
            return self.reduced_form
        assert self.decoded is not None
        return relation_term(self.decoded.relation)


def relation_term(relation: Relation) -> Term:
    """The Definition 3.1 encoding of ``relation``, built on first use.

    A relation is immutable, so the term is memoized on the relation
    itself.  The memo is process-local: a pickled relation (a shard
    snapshot) leaves it behind.
    """
    term = relation.__dict__.get("_term")
    if term is None:
        term = encode_relation(relation)
        object.__setattr__(relation, "_term", term)
    return term


def encoded_inputs(database: Database) -> Tuple[Term, ...]:
    """The encodings ``r̄1 ... r̄l`` a reduction engine applies a query to,
    in schema order (Definition 3.10)."""
    return tuple(relation_term(relation) for _, relation in database)


def validate_engine(engine: str) -> Engine:
    """The table row of ``engine``, checked *before* any per-request
    work (encoding a large database only to fail on a typo is exactly
    the failure mode this guards against)."""
    row = ENGINE_TABLE.get(engine)
    if row is None:
        raise EvaluationError(
            f"unknown engine {engine!r}; expected one of "
            f"{tuple(ENGINE_TABLE)}"
        )
    return row


def runs_staged(engine: str, name: str, *, term: bool, spec: bool) -> bool:
    """How ``engine`` runs the plan ``name``, which has a term (``term``)
    and/or a fixpoint spec (``spec``): ``True`` when the spec runs stage
    by stage, ``False`` when the term runs whole.  A pair that can run
    neither way is rejected with one error naming the engines that can
    run the plan."""
    row = validate_engine(engine)
    if spec and row.stage is not None:
        return True
    if term and row.term is not None:
        return False
    able = [
        repr(other)
        for other, candidate in ENGINE_TABLE.items()
        if (spec and candidate.stage is not None)
        or (term and candidate.term is not None)
    ]
    raise EvaluationError(
        f"query {name!r} runs on {', '.join(able[:-1])} or {able[-1]}, "
        f"not on engine {engine!r}"
    )


def evaluate_term_query(
    query: Term,
    inputs: Union[Database, Sequence[Term]],
    *,
    engine: str = "nbe",
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    observer: Optional[Observer] = None,
    output_arity: Optional[int] = None,
) -> EngineResult:
    """Answer ``query`` over ``inputs`` by the ``term`` of ``engine``'s row.

    For the reduction engines that is Definition 3.10: normalize
    ``(query r̄1 ... r̄l)``.  ``inputs`` is the database (encoded here, per
    :func:`encoded_inputs`) or the encodings themselves.  ``"ra"`` runs
    on the relations of a :class:`Database` with the certified
    ``output_arity``, and falls back to NBE when it cannot (a missing
    arity, or a :class:`~repro.compile.CompileFallback`,
    :class:`EvaluationError` or :class:`SchemaError` from lowering or
    running the plan).

    ``observer`` receives the engine's step breakdown dict (the
    :mod:`repro.obs.profiler` contract); step totals are unchanged by it.
    """
    runs_staged(engine, "<term>", term=True, spec=False)
    run = ENGINE_TABLE[engine].term
    assert run is not None, engine
    return run(
        query, inputs, fuel=fuel, max_depth=max_depth, observer=observer,
        output_arity=output_arity,
    )


def _applied(query: Term, inputs: Union[Database, Sequence[Term]]) -> Term:
    if isinstance(inputs, Database):
        inputs = encoded_inputs(inputs)
    return app(query, *inputs)


def _nbe(
    query, inputs, *, fuel, max_depth, observer, output_arity=None,
    fallback: Optional[str] = None,
) -> EngineResult:
    normal_form, steps = nbe_normalize_counted(
        _applied(query, inputs), max_depth=max_depth, fuel=fuel,
        observer=observer,
    )
    return EngineResult(
        engine="nbe", steps=steps, reduced_form=normal_form,
        fallback=fallback,
    )


def _reduce(
    engine: str, strategy: Strategy, query, inputs, *, fuel, max_depth,
    observer, output_arity,
) -> EngineResult:
    outcome = normalize(
        _applied(query, inputs), strategy, fuel=fuel, observer=observer
    )
    return EngineResult(
        engine=engine, steps=outcome.steps, reduced_form=outcome.term
    )


def _ra(
    query, inputs, *, fuel, max_depth, observer, output_arity
) -> EngineResult:
    if not isinstance(inputs, Database):
        raise EvaluationError(
            'engine "ra" needs the database relations, not only the '
            "encodings"
        )
    from repro.compile import CompileFallback, compile_term_plan

    fallback = 'engine "ra" needs the certified output arity'
    if output_arity is not None:
        try:
            plan = compile_term_plan(query, inputs.arities, output_arity)
            run = plan.execute(inputs)
        except (CompileFallback, EvaluationError, SchemaError) as exc:
            fallback = str(exc)
        else:
            if observer is not None:
                # "steps" keeps ProfileCollector totals meaningful; the
                # dedicated key marks them as set-executor operations,
                # not reduction steps.
                observer({"steps": run.ops, "ra_ops": run.ops})
            return EngineResult(
                engine=RA_ENGINE, steps=run.ops, decoded=run.decoded
            )
    return _nbe(
        query, inputs, fuel=fuel, max_depth=max_depth, observer=observer,
        fallback=fallback,
    )


def _materialized_stage(
    step: RAExpr,
    inputs: Database,
    stage: Relation,
    max_depth: int,
    observer: Optional[Observer] = None,
) -> Tuple[Relation, int]:
    """One stage by per-operator NBE materialization, counting reduction
    steps.  ``run_ra_query_materialized`` is looked up per call."""
    from repro.eval.materialize import run_ra_query_materialized
    from repro.queries.fixpoint import FIX_NAME

    run = run_ra_query_materialized(
        step, inputs.with_relation(FIX_NAME, stage), max_depth=max_depth,
        observer=observer,
    )
    return run.relation, run.steps


#: Every engine, in documentation order.
ENGINE_TABLE: Dict[str, Engine] = {
    "nbe": Engine(term=_nbe),
    "smallstep": Engine(
        term=partial(_reduce, "smallstep", Strategy.NORMAL_ORDER)
    ),
    "applicative": Engine(
        term=partial(_reduce, "applicative", Strategy.APPLICATIVE_ORDER)
    ),
    RA_ENGINE: Engine(term=_ra, stage=set_stage, compiled=True),
    FIXPOINT_ENGINE: Engine(stage=_materialized_stage),
}

#: The engines that answer term plans, in documentation order.
ENGINES = tuple(
    name for name, row in ENGINE_TABLE.items() if row.term is not None
)
