"""Engine dispatch shared by the one-shot driver and the service runtime.

Term-shaped queries run on one of the :data:`ENGINES`:

* ``"nbe"`` — normalization by evaluation (:mod:`repro.lam.nbe`), the
  performance normalizer and the default;
* ``"smallstep"`` — the reference small-step normalizer, normal order,
  with step counts (:mod:`repro.lam.reduce`);
* ``"applicative"`` — small-step, applicative order;
* ``"ra"`` — the plan compiler (:mod:`repro.compile`): the certified
  plan is lowered to a set-backed relational-algebra program and run
  directly on the database relations — no beta-reduction.  Requires the
  database itself (the plan operates on relations, not on encoded
  terms) and the certified output arity, and only accepts plans the
  lowering recognizes; each restriction raises so callers (the runtime)
  can fall back to NBE.

**Encodings live here.**  The Definition 3.1 encodings ``r̄1 ... r̄l``
are the input format of the three reduction engines and of nothing
else, so this module is where the serving path builds them: on first
use by a reduction engine (or ``"ra"``'s NBE fallback), memoized on the
immutable :class:`~repro.db.relations.Relation` (:func:`relation_term`).
An unchanged relation is therefore encoded once across updates, cache
hits and shard tasks, and a relation that only ``"ra"`` reads is never
encoded.  ``"ra"`` hands back the relation it computed; its term, when
someone asks for it, is rebuilt from that relation.

Fixpoint-query specs (:class:`repro.queries.fixpoint.FixpointQuery`) do not
go through this module: the service runtime dispatches them to the
Theorem 5.2 stage-materializing evaluator
(:func:`repro.eval.ptime.run_fixpoint_query`) under the engine name
``"fixpoint"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.db.decode import DecodedRelation
from repro.db.encode import encode_relation
from repro.db.relations import Database, Relation
from repro.errors import EvaluationError
from repro.lam.nbe import nbe_normalize_counted
from repro.lam.reduce import DEFAULT_FUEL, Strategy, normalize
from repro.lam.terms import Term, app

#: The term-level engines, in documentation order.
ENGINES = ("nbe", "smallstep", "applicative", "ra")

#: The compiled set-backed engine's name (a member of :data:`ENGINES`).
RA_ENGINE = "ra"

#: Engine name used by the runtime for fixpoint-query specs (not a member
#: of :data:`ENGINES`: it applies to specs, not raw terms).
FIXPOINT_ENGINE = "fixpoint"

DEFAULT_MAX_DEPTH = 600_000

_STRATEGIES = {
    "smallstep": Strategy.NORMAL_ORDER,
    "applicative": Strategy.APPLICATIVE_ORDER,
}


@dataclass(frozen=True)
class EngineResult:
    """An engine's answer plus how much work reaching it took.

    A reduction engine reaches ``reduced_form`` and leaves decoding it to
    the caller (Lemma 3.2); ``"ra"`` hands over the relation it computed
    as ``decoded`` and reduces no term at all.  ``steps`` counts
    contracted redexes for the small-step engines, beta/delta/let
    evaluation steps for NBE (see
    :func:`repro.lam.nbe.nbe_normalize_counted`) and executor operations
    for ``"ra"``.
    """

    engine: str
    steps: Optional[int] = None
    reduced_form: Optional[Term] = None
    decoded: Optional[DecodedRelation] = None

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


def validate_engine(engine: str, *, allow_fixpoint: bool = False) -> str:
    """Check ``engine`` against the known engine names, *before* any
    per-request work (encoding a large database only to fail on a typo is
    exactly the failure mode this guards against)."""
    allowed = ENGINES + ((FIXPOINT_ENGINE,) if allow_fixpoint else ())
    if engine not in allowed:
        raise EvaluationError(
            f"unknown engine {engine!r}; expected one of {allowed}"
        )
    return engine


def evaluate_term_query(
    query: Term,
    inputs: Union[Database, Sequence[Term]],
    *,
    engine: str = "nbe",
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    observer: Optional[Callable[[dict], None]] = None,
    output_arity: Optional[int] = None,
) -> EngineResult:
    """Answer ``query`` over ``inputs`` on the selected engine.

    For the reduction engines that is Definition 3.10: normalize
    ``(query r̄1 ... r̄l)``.  ``inputs`` is the database (encoded here, per
    :func:`encoded_inputs`) or the encodings themselves.  ``"ra"`` runs
    on the relations of a :class:`Database` and needs the certified
    ``output_arity``.

    ``observer`` receives the engine's step breakdown dict (the
    :mod:`repro.obs.profiler` contract); step totals are unchanged by it.
    """
    validate_engine(engine)
    if engine == RA_ENGINE:
        if not isinstance(inputs, Database) or output_arity is None:
            raise EvaluationError(
                'engine "ra" needs the database relations and the '
                "certified output arity, not only the encodings"
            )
        from repro.compile import compile_term_plan

        plan = compile_term_plan(query, inputs.arities, output_arity)
        run = plan.execute(inputs)
        if observer is not None:
            # "steps" keeps ProfileCollector totals meaningful; the
            # dedicated key marks them as set-executor operations, not
            # reduction steps.
            observer({"steps": run.ops, "ra_ops": run.ops})
        return EngineResult(engine=engine, steps=run.ops, decoded=run.decoded)
    if isinstance(inputs, Database):
        inputs = encoded_inputs(inputs)
    applied = app(query, *inputs)
    if engine == "nbe":
        normal_form, steps = nbe_normalize_counted(
            applied, max_depth=max_depth, fuel=fuel, observer=observer
        )
        return EngineResult(
            engine=engine, steps=steps, reduced_form=normal_form
        )
    outcome = normalize(
        applied, _STRATEGIES[engine], fuel=fuel, observer=observer
    )
    return EngineResult(
        engine=engine, steps=outcome.steps, reduced_form=outcome.term
    )
