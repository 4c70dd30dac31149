"""Decoding normal forms back into relations (Lemma 3.2, Remark 3.3).

Lemma 3.2 analyzes the possible shapes of a closed normal form of type
``o^k_d``:

* ``λc. λn. n`` — the empty relation;
* ``λc. λn. c t̄1 (c t̄2 (... (c t̄m n)))`` — an encoding *with duplicates*
  (each tuple appears at least once, possibly more);
* ``λc. c t̄1`` — the eta-variant for a single tuple (Remark 3.3): since
  ``λc. c t̄`` and ``λc. λn. c t̄ n`` eta-convert to each other, both are
  accepted.

:func:`decode_relation` implements exactly this case analysis and raises
:class:`DecodeError` on anything else, which makes it a executable check of
the lemma: the test suite feeds it arbitrary normal forms of the right type
and arbitrary garbage of the wrong shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.db.relations import Relation, TupleValue
from repro.errors import DecodeError
from repro.lam.terms import Abs, Const, Term, Var, spine


@dataclass(frozen=True)
class DecodedRelation:
    """A decoded normal form.

    ``relation`` is duplicate-free in first-occurrence order; ``raw_tuples``
    is the literal tuple list including duplicates (the paper's "encoding
    with duplicates" view); ``had_duplicates`` flags the difference.
    """

    relation: Relation
    raw_tuples: Tuple[TupleValue, ...]
    had_duplicates: bool
    eta_variant: bool

    @staticmethod
    def of(relation: Relation) -> "DecodedRelation":
        """A relation computed directly rather than decoded from a term:
        its raw list is its own duplicate-free tuple list."""
        return DecodedRelation(relation, relation.tuples, False, False)


def decode_relation(term: Term, arity: Optional[int] = None) -> DecodedRelation:
    """Read a relation from a normal-form encoding.

    ``arity`` may be supplied to check the expectation; otherwise it is
    inferred from the first tuple (an empty list decodes as arity ``0`` only
    when ``arity`` is omitted... it has no tuples, so the declared arity is
    taken, defaulting to 0).
    """
    if not isinstance(term, Abs):
        raise DecodeError(f"not an abstraction: {term}")
    cons_name = term.var
    eta_variant = False
    if isinstance(term.body, Abs):
        nil_name: Optional[str] = term.body.var
        if nil_name == cons_name:
            # λc. λc. ... — the inner binder shadows; the body can only be
            # a valid encoding if it never uses the outer c, i.e. is the
            # empty relation λc. λn. n with funny names.
            cons_name = None  # type: ignore[assignment]
        body = term.body.body
    else:
        # Remark 3.3: λc. c t̄ — single-tuple eta-variant.
        nil_name = None
        body = term.body
        eta_variant = True

    rows: List[TupleValue] = []
    node = body
    while True:
        head, args = spine(node)
        if (
            nil_name is not None
            and isinstance(node, Var)
            and node.name == nil_name
        ):
            break
        if not (isinstance(head, Var) and head.name == cons_name):
            raise DecodeError(
                f"expected an application of the list constructor "
                f"{cons_name!r} or the tail variable, found: {node}"
            )
        if eta_variant:
            # λc. c o1 ... ok — all args are constants, no tail.
            tail = None
            constant_args = args
        else:
            if len(args) < 1:
                raise DecodeError(f"constructor with no arguments: {node}")
            tail = args[-1]
            constant_args = args[:-1]
        row = []
        for argument in constant_args:
            if not isinstance(argument, Const):
                raise DecodeError(
                    f"tuple component is not an atomic constant: {argument}"
                )
            row.append(argument.name)
        rows.append(tuple(row))
        if eta_variant:
            break
        node = tail

    if arity is None:
        arity = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != arity:
            raise DecodeError(
                f"mixed arities in encoding: expected {arity}, "
                f"found tuple {row!r}"
            )

    relation = Relation.deduplicated(arity, rows)
    return DecodedRelation(
        relation=relation,
        raw_tuples=tuple(rows),
        had_duplicates=len(rows) != len(relation),
        eta_variant=eta_variant,
    )
