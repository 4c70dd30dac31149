"""The TLI=0 relational-operator terms (Section 4 and the Appendix).

Each function returns a *closed* lambda term, built exactly as the paper
writes it; arity-indexed families are functions of ``k``.  The terms given
explicitly in the paper's text are Equal_k, Member_k, Intersection_k, and
Order_k; the rest (union, difference, product, projection, selection, the
active-domain projections, and the strict tuple-order relation) are the
Appendix library, reconstructed in the same style and validated against the
baseline engine by the test suite.

Typing summary (over the fixed variables ``o`` and ``g``; ``d`` below is
the output accumulator, instantiated to ``g`` in whole-query typings):

    Equal_k        : o^k -> o^k -> Bool           (Bool = g -> g -> g)
    Member_k       : o^k -> o^k_g -> Bool
    Order_k        : o^k -> o^k -> o^k_g -> Bool
    Intersection_k : o^k_d -> o^k_g -> o^k_d      (with d = g)
    Union_k        : o^k_d -> o^k_d -> o^k_d
    ...

All operators are order <= 3, hence TLI=0 building blocks.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.errors import QueryTermError
from repro.lam.terms import Const, EqConst, Term, Var, app, lam
from repro.relalg.ast import (
    ColumnEqualsColumn,
    ColumnEqualsConst,
    CondAnd,
    CondNot,
    CondOr,
    CondTrue,
    Condition,
)


def _tuple_vars(base: str, count: int) -> list:
    return [f"{base}{i + 1}" for i in range(count)]


def equal_term(k: int) -> Term:
    """``Equal_k``: tuple equality (Section 4).

    ``Equal_k x1..xk y1..yk`` reduces to ``True`` iff the tuples agree:

        λx̄. λȳ. λu. λv. Eq x1 y1 (Eq x2 y2 (... (Eq xk yk u v) ... v) v
    """
    xs = _tuple_vars("x", k)
    ys = _tuple_vars("y", k)
    body: Term = Var("u")
    # Build inside-out: the innermost test yields u, any failure yields v.
    for x, y in reversed(list(zip(xs, ys))):
        body = app(EqConst(), Var(x), Var(y), body, Var("v"))
    return lam(xs + ys + ["u", "v"], body)


def member_term(k: int) -> Term:
    """``Member_k``: tuple membership in an encoded relation (Section 4).

        λx̄. λR. λu. λv. R (λȳ. λT. Equal_k x̄ ȳ u T) v
    """
    xs = _tuple_vars("x", k)
    ys = _tuple_vars("y", k)
    loop = lam(
        ys + ["T"],
        app(
            equal_term(k),
            *[Var(x) for x in xs],
            *[Var(y) for y in ys],
            Var("u"),
            Var("T"),
        ),
    )
    return lam(xs + ["R", "u", "v"], app(Var("R"), loop, Var("v")))


def order_term(k: int) -> Term:
    """``Order_k``: weak tuple order in an encoded relation (Section 4).

    ``Order_k x̄ ȳ R`` reduces to ``True`` iff the first of the two tuples
    reached in R's list order is ``x̄`` (so ``True`` when ``x̄ = ȳ`` is
    present, and ``False`` when neither occurs):

        λx̄. λȳ. λR. λu. λv.
            R (λz̄. λT. Equal_k x̄ z̄ u (Equal_k ȳ z̄ v T)) v
    """
    xs = _tuple_vars("x", k)
    ys = _tuple_vars("y", k)
    zs = _tuple_vars("z", k)
    x_vars = [Var(x) for x in xs]
    y_vars = [Var(y) for y in ys]
    z_vars = [Var(z) for z in zs]
    loop = lam(
        zs + ["T"],
        app(
            equal_term(k),
            *x_vars,
            *z_vars,
            Var("u"),
            app(equal_term(k), *y_vars, *z_vars, Var("v"), Var("T")),
        ),
    )
    return lam(
        xs + ys + ["R", "u", "v"], app(Var("R"), loop, Var("v"))
    )


def intersection_term(k: int) -> Term:
    """``Intersection_k`` (Section 4):

        λR. λS. λc. λn. R (λx̄. λT. Member_k x̄ S (c x̄ T) T) n
    """
    xs = _tuple_vars("x", k)
    x_vars = [Var(x) for x in xs]
    keep = app(Var("c"), *x_vars, Var("T"))
    loop = lam(
        xs + ["T"],
        app(member_term(k), *x_vars, Var("S"), keep, Var("T")),
    )
    return lam(["R", "S", "c", "n"], app(Var("R"), loop, Var("n")))


def union_term(k: int) -> Term:
    """``Union_k`` (Appendix): ``λR. λS. λc. λn. R c (S c n)`` — prepend
    R's tuples to S's list."""
    return lam(
        ["R", "S", "c", "n"],
        app(Var("R"), Var("c"), app(Var("S"), Var("c"), Var("n"))),
    )


def difference_term(k: int) -> Term:
    """``Difference_k`` (Appendix):

        λR. λS. λc. λn. R (λx̄. λT. Member_k x̄ S T (c x̄ T)) n
    """
    xs = _tuple_vars("x", k)
    x_vars = [Var(x) for x in xs]
    keep = app(Var("c"), *x_vars, Var("T"))
    loop = lam(
        xs + ["T"],
        app(member_term(k), *x_vars, Var("S"), Var("T"), keep),
    )
    return lam(["R", "S", "c", "n"], app(Var("R"), loop, Var("n")))


def product_term(k: int, width: int) -> Term:
    """``Product_{k,l}`` (Appendix): Cartesian product by nested iteration:

        λR. λS. λc. λn. R (λx̄. λT. S (λȳ. λU. c x̄ ȳ U) T) n
    """
    xs = _tuple_vars("x", k)
    ys = _tuple_vars("y", width)
    inner = lam(
        ys + ["U"],
        app(
            Var("c"),
            *[Var(x) for x in xs],
            *[Var(y) for y in ys],
            Var("U"),
        ),
    )
    outer = lam(xs + ["T"], app(Var("S"), inner, Var("T")))
    return lam(["R", "S", "c", "n"], app(Var("R"), outer, Var("n")))


def project_term(k: int, columns: Sequence[int]) -> Term:
    """``Project_{k -> columns}`` (Appendix): generalized projection
    (columns may repeat and reorder; 0-based):

        λR. λc. λn. R (λx̄. λT. c x_{i1} ... x_{ip} T) n
    """
    for column in columns:
        if not 0 <= column < k:
            raise QueryTermError(
                f"projection column {column} out of range for arity {k}"
            )
    xs = _tuple_vars("x", k)
    loop = lam(
        xs + ["T"],
        app(Var("c"), *[Var(xs[i]) for i in columns], Var("T")),
    )
    return lam(["R", "c", "n"], app(Var("R"), loop, Var("n")))


def select_term(k: int, condition: Condition) -> Term:
    """``Select_{k, cond}`` (Appendix): selection by a boolean combination
    of column equalities, compiled into nested ``Eq`` branches:

        λR. λc. λn. R (λx̄. λT. [cond](c x̄ T, T)) n
    """
    xs = _tuple_vars("x", k)
    x_vars = [Var(x) for x in xs]
    keep = app(Var("c"), *x_vars, Var("T"))
    body = compile_condition(condition, x_vars, keep, Var("T"))
    loop = lam(xs + ["T"], body)
    return lam(["R", "c", "n"], app(Var("R"), loop, Var("n")))


def compile_condition(
    condition: Condition,
    columns: Sequence[Term],
    then_term: Term,
    else_term: Term,
) -> Term:
    """Compile a selection condition into an ``Eq``-branching term that
    reduces to ``then_term`` when the condition holds of the tuple bound to
    ``columns`` and to ``else_term`` otherwise.

    Conjunction, disjunction, and negation are compiled by branch chaining
    (no Church-boolean intermediates), so the result stays within the
    shapes Lemma 5.6 allows for type-``g`` subterms.

    Chaining copies both continuations below every test, so a condition
    that tests the same equality again on one path would compile to a term
    exponentially larger than itself.  A test already decided on the path
    (``x_i = x_j`` and ``x_j = x_i`` are one test) is therefore not emitted
    again: its branch is taken directly.  A condition that never repeats a
    test compiles exactly as plain chaining does.
    """
    return _chain_condition(
        condition,
        columns,
        lambda decided: then_term,
        lambda decided: else_term,
        {},
    )


def _chain_condition(
    condition: Condition,
    columns: Sequence[Term],
    then_branch: Callable[[Dict[tuple, bool]], Term],
    else_branch: Callable[[Dict[tuple, bool]], Term],
    decided: Dict[tuple, bool],
) -> Term:
    """Branch chaining in continuation style: ``then_branch`` and
    ``else_branch`` build the continuation for the tests ``decided`` on
    the path so far (test key -> outcome)."""
    if isinstance(condition, CondTrue):
        return then_branch(decided)
    if isinstance(condition, (ColumnEqualsColumn, ColumnEqualsConst)):
        if isinstance(condition, ColumnEqualsColumn):
            pair = sorted((condition.left, condition.right))
            key: tuple = ("columns", *pair)
            left, right = columns[condition.left], columns[condition.right]
        else:
            key = ("constant", condition.column, condition.constant)
            left, right = columns[condition.column], Const(condition.constant)
        if key in decided:
            return (then_branch if decided[key] else else_branch)(decided)
        return app(
            EqConst(),
            left,
            right,
            then_branch({**decided, key: True}),
            else_branch({**decided, key: False}),
        )
    if isinstance(condition, CondAnd):
        return _chain_condition(
            condition.left,
            columns,
            lambda known: _chain_condition(
                condition.right, columns, then_branch, else_branch, known
            ),
            else_branch,
            decided,
        )
    if isinstance(condition, CondOr):
        return _chain_condition(
            condition.left,
            columns,
            then_branch,
            lambda known: _chain_condition(
                condition.right, columns, then_branch, else_branch, known
            ),
            decided,
        )
    if isinstance(condition, CondNot):
        return _chain_condition(
            condition.inner, columns, else_branch, then_branch, decided
        )
    raise TypeError(f"not a condition: {condition!r}")


def distinct_projection_term(k: int, column: int) -> Term:
    """Single-column projection emitting each value once (Appendix style).

    A plain projection ``π_i R`` emits one copy of ``x_i`` per row, so the
    active-domain list would grow with the relation, and products over it
    square the waste.  This variant emits ``y_i`` only from the *first* row
    (in R's list order) that carries that value in column ``i``:

        λR. λc. λn.
          R (λȳ. λT.
              R (λz̄. λA.
                  Eq z_i y_i
                     (Equal_k z̄ ȳ A (Order_k z̄ ȳ R T A))
                     A)
                (c y_i T)) n

    The inner fold starts from "keep" (``c y_i T``) and flips to "skip"
    (``T``) exactly when some row with the same column value strictly
    precedes ``ȳ``; inputs are duplicate-free encodings (Definition 3.1),
    so Order_k's first-match semantics is the list order.
    """
    if not 0 <= column < k:
        raise QueryTermError(
            f"projection column {column} out of range for arity {k}"
        )
    ys = _tuple_vars("y", k)
    zs = _tuple_vars("z", k)
    y_vars = [Var(y) for y in ys]
    z_vars = [Var(z) for z in zs]
    keep = app(Var("c"), y_vars[column], Var("T"))
    skip = Var("T")
    strict_then_skip = app(
        equal_term(k),
        *z_vars,
        *y_vars,
        Var("A"),
        app(order_term(k), *z_vars, *y_vars, Var("R"), skip, Var("A")),
    )
    inner_body = app(
        EqConst(), z_vars[column], y_vars[column], strict_then_skip, Var("A")
    )
    inner = lam(zs + ["A"], inner_body)
    outer = lam(ys + ["T"], app(Var("R"), inner, keep))
    return lam(["R", "c", "n"], app(Var("R"), outer, Var("n")))


def distinct_union_term(k: int) -> Term:
    """Union that avoids re-listing tuples of R already present in S:

        λR. λS. λc. λn. R (λx̄. λT. Member_k x̄ S T (c x̄ T)) (S c n)

    The output is ``(R minus S)`` followed by ``S`` — the same set as
    ``Union_k``, with duplicates across the two inputs suppressed.
    """
    xs = _tuple_vars("x", k)
    x_vars = [Var(x) for x in xs]
    keep = app(Var("c"), *x_vars, Var("T"))
    loop = lam(
        xs + ["T"],
        app(member_term(k), *x_vars, Var("S"), Var("T"), keep),
    )
    return lam(
        ["R", "S", "c", "n"],
        app(Var("R"), loop, app(Var("S"), Var("c"), Var("n"))),
    )


def empty_relation_term() -> Term:
    """The encoding of the empty relation: ``λc. λn. n``."""
    return lam(["c", "n"], Var("n"))


def precedes_relation_term(k: int) -> Term:
    """The strict list-order relation of an input (Section 5.2's interpreted
    ``Precedes`` predicate, computable in TLI=0 because encodings order
    their tuples):

        λR. λc. λn.
          R (λx̄. λT.
              R (λȳ. λU.
                  Equal_k x̄ ȳ U (Order_k x̄ ȳ R (c x̄ ȳ U) U)) T) n

    Produces the 2k-ary relation {(x̄, ȳ) : x̄ strictly before ȳ in R}.
    """
    xs = _tuple_vars("x", k)
    ys = _tuple_vars("y", k)
    x_vars = [Var(x) for x in xs]
    y_vars = [Var(y) for y in ys]
    keep = app(Var("c"), *x_vars, *y_vars, Var("U"))
    strict = app(
        order_term(k), *x_vars, *y_vars, Var("R"), keep, Var("U")
    )
    inner = lam(
        ys + ["U"],
        app(equal_term(k), *x_vars, *y_vars, Var("U"), strict),
    )
    outer = lam(xs + ["T"], app(Var("R"), inner, Var("T")))
    return lam(["R", "c", "n"], app(Var("R"), outer, Var("n")))
