"""Datalog(-not) abstract syntax.

A :class:`Program` is a set of rules over EDB (input) and IDB (derived)
predicates.  Rule bodies are conjunctions of positive and negative
literals; safety (every head/negative variable bound by a positive body
literal) is checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.errors import SchemaError


class RuleTerm:
    """Base class of rule terms (variables and constants)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RVar(RuleTerm):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RConst(RuleTerm):
    name: str

    def __str__(self) -> str:
        return f"'{self.name}'"


@dataclass(frozen=True, slots=True)
class Literal:
    """``predicate(terms)`` or ``not predicate(terms)``."""

    predicate: str
    terms: Tuple[RuleTerm, ...]
    positive: bool = True

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        prefix = "" if self.positive else "not "
        return f"{prefix}{self.predicate}({inner})"

    def variables(self) -> FrozenSet[str]:
        return frozenset(
            t.name for t in self.terms if isinstance(t, RVar)
        )


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground head with no body — EDB-style seed data for IDBs."""

    predicate: str
    values: Tuple[str, ...]


@dataclass(frozen=True)
class Rule:
    """``head :- body``."""

    head: Literal
    body: Tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.head.positive:
            raise SchemaError("rule heads must be positive literals")
        bound: Set[str] = set()
        for literal in self.body:
            if literal.positive:
                bound |= literal.variables()
        unbound = self.head.variables() - bound
        if unbound:
            raise SchemaError(
                f"unsafe rule: head variables {sorted(unbound)} not bound "
                f"by a positive body literal"
            )
        for literal in self.body:
            if not literal.positive:
                floating = literal.variables() - bound
                if floating:
                    raise SchemaError(
                        f"unsafe rule: negated variables "
                        f"{sorted(floating)} not bound positively"
                    )

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} :- {body}."


@dataclass(frozen=True)
class Program:
    """A Datalog(-not) program.

    ``edb_schema`` maps input predicate names to arities; IDB predicates
    are those appearing in some rule head, with arities inferred and
    consistency-checked.
    """

    rules: Tuple[Rule, ...]
    edb_schema: Tuple[Tuple[str, int], ...]

    @staticmethod
    def of(rules: Sequence[Rule], edb_schema: Dict[str, int]) -> "Program":
        program = Program(tuple(rules), tuple(edb_schema.items()))
        program.idb_schema()  # arity consistency check
        return program

    def edb(self) -> Dict[str, int]:
        return dict(self.edb_schema)

    def idb_schema(self) -> Dict[str, int]:
        edb = self.edb()
        idb: Dict[str, int] = {}
        for rule in self.rules:
            name = rule.head.predicate
            arity = len(rule.head.terms)
            if name in edb:
                raise SchemaError(
                    f"rule head {name!r} is an EDB predicate"
                )
            if idb.setdefault(name, arity) != arity:
                raise SchemaError(
                    f"predicate {name!r} used with arities "
                    f"{idb[name]} and {arity}"
                )
        for rule in self.rules:
            for literal in rule.body:
                name = literal.predicate
                arity = len(literal.terms)
                declared = edb.get(name, idb.get(name))
                if declared is None:
                    raise SchemaError(
                        f"unknown predicate {name!r} in rule body"
                    )
                if declared != arity:
                    raise SchemaError(
                        f"predicate {name!r} used with arities "
                        f"{declared} and {arity}"
                    )
        return idb

    def idb_predicates(self) -> List[str]:
        seen: Dict[str, None] = {}
        for rule in self.rules:
            seen.setdefault(rule.head.predicate, None)
        return list(seen)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
