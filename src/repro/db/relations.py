"""List-represented relations and databases (Definition 3.4).

A *list-represented relation* is a pair ``(r, <)`` of a finite relation over
the constant universe and a linear order on its tuples.  We realize the pair
as an ordered, duplicate-free tuple sequence: the sequence order *is* the
linear order ``<``.  Two relations are equal only if they contain the same
tuples in the same order; use :meth:`Relation.same_set` for set-level
comparison (the right notion when comparing query outputs, which are
encodings "with duplicates" whose order is evaluation-dependent).

Constants are strings (see :mod:`repro.naming`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError

TupleValue = Tuple[str, ...]


@dataclass(frozen=True)
class Relation:
    """An ordered, duplicate-free list of equal-arity tuples."""

    arity: int
    tuples: Tuple[TupleValue, ...]

    def __post_init__(self) -> None:
        index: Dict[TupleValue, int] = {}
        for position, row in enumerate(self.tuples):
            if len(row) != self.arity:
                raise SchemaError(
                    f"tuple {row!r} has arity {len(row)}, expected {self.arity}"
                )
            if row in index:
                raise SchemaError(f"duplicate tuple {row!r}")
            index[row] = position
        # Hash index (tuple -> list position), built once per relation:
        # membership tests and order lookups are O(1) instead of scans —
        # oracle comparisons and probe-heavy evaluation stay linear.
        object.__setattr__(self, "_index", index)

    def __getstate__(self) -> dict:
        # Only the value and its index cross a pickle (shard snapshots);
        # memos other layers attach, such as the Church encoding that
        # repro.service.engines caches here, stay in their process.
        return {
            "arity": self.arity,
            "tuples": self.tuples,
            "_index": self._index,  # type: ignore[attr-defined]
        }

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_tuples(arity: int, rows: Iterable[Sequence[str]]) -> "Relation":
        """Build a relation preserving iteration order, rejecting duplicates."""
        return Relation(arity, tuple(tuple(row) for row in rows))

    @staticmethod
    def from_any_order(arity: int, rows: Iterable[Sequence[str]]) -> "Relation":
        """Build a relation in sorted tuple order — a canonical
        list-representation for a set of tuples."""
        distinct = sorted({tuple(row) for row in rows})
        return Relation(arity, tuple(distinct))

    @staticmethod
    def deduplicated(arity: int, rows: Iterable[Sequence[str]]) -> "Relation":
        """Build a relation keeping the first occurrence of each tuple."""
        seen = set()
        kept: List[TupleValue] = []
        for row in rows:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                kept.append(key)
        return Relation(arity, tuple(kept))

    @staticmethod
    def empty(arity: int) -> "Relation":
        return Relation(arity, ())

    @staticmethod
    def unary(values: Iterable[str]) -> "Relation":
        """A unary relation from a sequence of constants (order kept)."""
        return Relation.from_tuples(1, [(v,) for v in values])

    # -- observations --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[TupleValue]:
        return iter(self.tuples)

    def __contains__(self, row: Sequence[str]) -> bool:
        return tuple(row) in self._index  # type: ignore[attr-defined]

    def as_set(self) -> frozenset:
        return frozenset(self._index)  # type: ignore[attr-defined]

    def same_set(self, other: "Relation") -> bool:
        """Set-level equality, ignoring tuple order."""
        return self.arity == other.arity and self.as_set() == other.as_set()

    def constants(self) -> List[str]:
        """The constants appearing in this relation, in first-appearance
        order (row-major)."""
        seen: Dict[str, None] = {}
        for row in self.tuples:
            for value in row:
                seen.setdefault(value, None)
        return list(seen)

    def position(self, row: Sequence[str]) -> int:
        """Index of ``row`` in the list order; raises ``ValueError`` if
        absent.  This realizes the order predicate ``<`` of Definition 3.4."""
        position = self._index.get(tuple(row))  # type: ignore[attr-defined]
        if position is None:
            raise ValueError(f"{tuple(row)!r} is not in relation")
        return position

    def precedes(self, left: Sequence[str], right: Sequence[str]) -> bool:
        """Does ``left`` come strictly before ``right`` in the list order?"""
        return self.position(left) < self.position(right)

    def sorted(self) -> "Relation":
        """The same tuple set in canonical sorted order."""
        return Relation(self.arity, tuple(sorted(self.tuples)))

    def __str__(self) -> str:
        rows = ", ".join("(" + ",".join(row) + ")" for row in self.tuples)
        return f"Relation[{self.arity}]{{{rows}}}"


@dataclass(frozen=True)
class Database:
    """A named tuple of list-represented relations (Definition 3.4)."""

    relations: Tuple[Tuple[str, Relation], ...]

    @staticmethod
    def of(relations: Mapping[str, Relation]) -> "Database":
        return Database(tuple(relations.items()))

    def __getitem__(self, name: str) -> Relation:
        for key, relation in self.relations:
            if key == name:
                return relation
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.relations)

    def __iter__(self) -> Iterator[Tuple[str, Relation]]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    @property
    def names(self) -> List[str]:
        return [key for key, _ in self.relations]

    @property
    def arities(self) -> List[int]:
        return [relation.arity for _, relation in self.relations]

    def active_domain(self) -> List[str]:
        """The set of constants appearing in the database, in
        first-appearance order (the paper's ``D``, Section 3.1)."""
        seen: Dict[str, None] = {}
        for _, relation in self.relations:
            for value in relation.constants():
                seen.setdefault(value, None)
        return list(seen)

    def map_relations(self, fn) -> "Database":
        """A copy with every relation replaced by ``fn(name, relation)``
        (names and their order are preserved — shard databases built this
        way keep the schema of the original, Definition 3.4)."""
        return Database(
            tuple((name, fn(name, relation)) for name, relation in self.relations)
        )

    def with_relation(self, name: str, relation: Relation) -> "Database":
        """A copy with ``name`` bound to ``relation`` (added or replaced)."""
        items = [
            (key, relation if key == name else value)
            for key, value in self.relations
        ]
        if name not in self:
            items.append((name, relation))
        return Database(tuple(items))

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.relations)
        return f"Database({parts})"
