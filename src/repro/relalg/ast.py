"""Relational algebra AST (positional columns, unnamed perspective).

Expressions are arity-checked against a schema before use; arities propagate
bottom-up.  Selection conditions are boolean combinations of column/column
and column/constant equalities — exactly what the TLI=0 operator library of
Section 4 can express with ``Eq``.

Two *derived* base relations are available beyond the schema:

* ``adom()`` — the unary active-domain relation ``D`` (Section 3.1);
* ``precedes(name)`` — the 2k-ary tuple-order relation of input ``name``
  (the interpreted ``Precedes_i`` predicate of Section 5.2, available to
  queries because databases are list-represented).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Tuple

from repro.errors import SchemaError

ADOM_NAME = "__adom__"
PRECEDES_PREFIX = "__precedes__"


# ---------------------------------------------------------------------------
# Selection conditions
# ---------------------------------------------------------------------------

class Condition:
    """Base class of selection conditions."""

    __slots__ = ()

    def __and__(self, other: "Condition") -> "Condition":
        return CondAnd(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return CondOr(self, other)

    def __invert__(self) -> "Condition":
        return CondNot(self)


@dataclass(frozen=True, slots=True)
class CondTrue(Condition):
    """The always-true condition."""


@dataclass(frozen=True, slots=True)
class ColumnEqualsColumn(Condition):
    """``#left = #right`` (0-based column indices)."""

    left: int
    right: int


@dataclass(frozen=True, slots=True)
class ColumnEqualsConst(Condition):
    """``#column = constant``."""

    column: int
    constant: str


@dataclass(frozen=True, slots=True)
class CondAnd(Condition):
    left: Condition
    right: Condition


@dataclass(frozen=True, slots=True)
class CondOr(Condition):
    left: Condition
    right: Condition


@dataclass(frozen=True, slots=True)
class CondNot(Condition):
    inner: Condition


def condition_columns(condition: Condition) -> Tuple[int, ...]:
    """All column indices mentioned by ``condition``."""
    if isinstance(condition, ColumnEqualsColumn):
        return (condition.left, condition.right)
    if isinstance(condition, ColumnEqualsConst):
        return (condition.column,)
    if isinstance(condition, (CondAnd, CondOr)):
        return condition_columns(condition.left) + condition_columns(
            condition.right
        )
    if isinstance(condition, CondNot):
        return condition_columns(condition.inner)
    if isinstance(condition, CondTrue):
        return ()
    raise TypeError(f"not a condition: {condition!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class RAExpr:
    """Base class of relational algebra expressions."""

    __slots__ = ()

    def arity(self, schema: Mapping[str, int]) -> int:
        """The output arity under ``schema`` (relation name -> arity).

        Raises :class:`SchemaError` on arity mismatches anywhere inside.
        """
        raise NotImplementedError

    # Fluent constructors --------------------------------------------------

    def union(self, other: "RAExpr") -> "RAExpr":
        return Union(self, other)

    def intersect(self, other: "RAExpr") -> "RAExpr":
        return Intersection(self, other)

    def minus(self, other: "RAExpr") -> "RAExpr":
        return Difference(self, other)

    def times(self, other: "RAExpr") -> "RAExpr":
        return Product(self, other)

    def project(self, *columns: int) -> "RAExpr":
        return Project(self, tuple(columns))

    def where(self, condition: Condition) -> "RAExpr":
        return Select(self, condition)


@dataclass(frozen=True, slots=True)
class Base(RAExpr):
    """A base relation reference (input relation, adom, or precedes)."""

    name: str

    def arity(self, schema: Mapping[str, int]) -> int:
        if self.name not in schema:
            raise SchemaError(f"unknown relation {self.name!r}")
        return schema[self.name]


def adom() -> Base:
    """The unary active-domain base relation."""
    return Base(ADOM_NAME)


def precedes(name: str) -> Base:
    """The 2k-ary list-order relation of input ``name``: contains
    ``(s̄, t̄)`` iff both tuples are in the input and ``s̄`` strictly
    precedes ``t̄`` in its list order."""
    return Base(PRECEDES_PREFIX + name)


def schema_with_derived(schema: Mapping[str, int]) -> dict:
    """Extend a schema with the derived adom / precedes relations."""
    extended = dict(schema)
    extended[ADOM_NAME] = 1
    for name, arity in schema.items():
        if not name.startswith("__"):
            extended[PRECEDES_PREFIX + name] = 2 * arity
    return extended


@dataclass(frozen=True, slots=True)
class Union(RAExpr):
    left: RAExpr
    right: RAExpr

    def arity(self, schema: Mapping[str, int]) -> int:
        return _same_arity(self.left, self.right, schema, "union")


@dataclass(frozen=True, slots=True)
class Intersection(RAExpr):
    left: RAExpr
    right: RAExpr

    def arity(self, schema: Mapping[str, int]) -> int:
        return _same_arity(self.left, self.right, schema, "intersection")


@dataclass(frozen=True, slots=True)
class Difference(RAExpr):
    left: RAExpr
    right: RAExpr

    def arity(self, schema: Mapping[str, int]) -> int:
        return _same_arity(self.left, self.right, schema, "difference")


@dataclass(frozen=True, slots=True)
class Product(RAExpr):
    """Cartesian product; output columns are left's then right's."""

    left: RAExpr
    right: RAExpr

    def arity(self, schema: Mapping[str, int]) -> int:
        return self.left.arity(schema) + self.right.arity(schema)


@dataclass(frozen=True, slots=True)
class Project(RAExpr):
    """Generalized projection: ``columns`` may repeat and reorder."""

    inner: RAExpr
    columns: Tuple[int, ...]

    def arity(self, schema: Mapping[str, int]) -> int:
        inner_arity = self.inner.arity(schema)
        for column in self.columns:
            if not 0 <= column < inner_arity:
                raise SchemaError(
                    f"projection column {column} out of range "
                    f"(inner arity {inner_arity})"
                )
        return len(self.columns)


@dataclass(frozen=True, slots=True)
class Select(RAExpr):
    inner: RAExpr
    condition: Condition

    def arity(self, schema: Mapping[str, int]) -> int:
        inner_arity = self.inner.arity(schema)
        for column in condition_columns(self.condition):
            if not 0 <= column < inner_arity:
                raise SchemaError(
                    f"selection column {column} out of range "
                    f"(inner arity {inner_arity})"
                )
        return inner_arity


def nodes(expr: RAExpr) -> Iterator[RAExpr]:
    """``expr`` and every sub-expression, parents first, left to right."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        for attr in reversed(type(node).__slots__):
            child = getattr(node, attr)
            if isinstance(child, RAExpr):
                stack.append(child)


def _same_arity(
    left: RAExpr, right: RAExpr, schema: Mapping[str, int], what: str
) -> int:
    left_arity = left.arity(schema)
    right_arity = right.arity(schema)
    if left_arity != right_arity:
        raise SchemaError(
            f"{what} of arities {left_arity} and {right_arity}"
        )
    return left_arity


def join(
    left: RAExpr,
    right: RAExpr,
    pairs: Sequence[Tuple[int, int]],
    schema: Mapping[str, int],
) -> RAExpr:
    """Equi-join as product + selection (columns of ``right`` are shifted
    by ``left``'s arity); a convenience used by the FO compiler."""
    offset = left.arity(schema)
    condition: Condition = CondTrue()
    for left_col, right_col in pairs:
        atom = ColumnEqualsColumn(left_col, offset + right_col)
        condition = (
            atom if isinstance(condition, CondTrue) else CondAnd(condition, atom)
        )
    return Select(Product(left, right), condition)
