"""Applying query terms to databases (Definition 3.10).

A query term ``Q`` maps the encoded database ``(r̄1 ... r̄l)`` to the
normal form of ``(Q r̄1 ... r̄l)``, which Lemma 3.2 guarantees is an
encoding with duplicates of the output relation.  :func:`run_query` performs
exactly that: encode, apply, normalize, decode.

Engines:

* ``"nbe"`` (default) — normalization by evaluation; fast for TLI=0
  queries, exponential on TLI=1 fixpoint towers (use
  :func:`repro.eval.ptime.run_fixpoint_query` for those — Theorem 5.2).
* ``"smallstep"`` — the reference small-step normalizer (normal order);
  exposes step counts, used by the complexity experiments.
* ``"applicative"`` — small-step, applicative order.

:func:`run_query` is the *one-shot* entry point: it normalizes from
scratch on every call (only the encodings are memoized, on the relations
themselves — :func:`repro.service.engines.relation_term`).  It is a thin
wrapper over the service runtime's uncached path
(:func:`repro.service.runtime.run_once`); for repeated queries over the
same databases use :class:`repro.service.QueryService`, which caches
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db.decode import DecodedRelation
from repro.db.relations import Database, Relation
from repro.lam.terms import Term

# Re-exported for backwards compatibility; the engine registry lives with
# the service runtime now.
from repro.service.engines import ENGINES  # noqa: F401


@dataclass
class QueryRun:
    """The outcome of one query evaluation."""

    relation: Relation
    decoded: DecodedRelation
    normal_form: Term
    engine: str
    steps: Optional[int] = None  # small-step and materialized engines


def run_query(
    query: Term,
    database: Database,
    *,
    arity: Optional[int] = None,
    engine: str = "nbe",
    fuel: int = 10_000_000,
    max_depth: int = 600_000,
) -> QueryRun:
    """Evaluate ``query`` over ``database`` and decode the result.

    ``arity`` optionally asserts the output arity.  Raises
    :class:`repro.errors.DecodeError` if the normal form is not a relation
    encoding (i.e. the term was not a query term for this input type), and
    :class:`repro.errors.EvaluationError` — *before* any encoding work —
    if ``engine`` is not one of :data:`ENGINES`.
    """
    from repro.service.runtime import run_once

    decoded, result = run_once(
        query,
        database,
        arity=arity,
        engine=engine,
        fuel=fuel,
        max_depth=max_depth,
    )
    return QueryRun(
        relation=decoded.relation,
        decoded=decoded,
        normal_form=result.normal_form,
        engine=result.engine,
        steps=result.steps,
    )
