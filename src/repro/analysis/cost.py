"""Static cost-bound estimation (pass 4 of the certifier).

Theorem 5.1 proves that order-<=4 query terms normalize in a number of
steps polynomial in the database size; this module computes a *concrete*
polynomial for each plan so the bound can be used operationally: the
service runtime derives per-request fuel budgets from it instead of a flat
default, and the acceptance tests assert the bound dominates the observed
NBE step counts on the benchmark corpus.

The model follows the iterator discipline of the Section 4 compilers
(every occurrence of an encoded input is a list iterator that scans its
list once per enclosing iteration level):

* **Term plans.**  With ``q`` occurrences of input-relation variables in
  the (let-expanded) body, nesting can multiply at most one full scan per
  occurrence, so evaluation performs at most ``(N + 2)^q`` loop-body
  entries on a database with ``N`` constant occurrences; each entry costs
  at most the plan size in steps, and readback adds at most one
  ``(N + 2)^k`` term for output arity ``k``.  The bound is

      coefficient * size * (N + 2) ** degree,
      degree = max(q, output_arity)

* **Fixpoint plans.**  The Theorem 4.2 tower cranks ``(N + 2)^k`` stages;
  each stage converts between list and characteristic-function form
  (enumerating ``D^k`` twice) and runs the TLI=0 step over the inputs plus
  the current stage (at most ``k * D^k`` additional atoms).  The bound is

      coefficient * size * (N + 2)**k * (N + k * D**k + 2)**(b + 2 * k)

  with ``b`` the number of base-relation occurrences in the effective
  step.

Both are deliberately loose upper envelopes — soundness over tightness:
a fuel budget that is 100x the real cost still stops runaway evaluation
six orders of magnitude before the flat default would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.db.relations import Database
from repro.lam.terms import Abs, App, Let, Term, Var, term_size

#: Multiplicative safety margin of every bound.
DEFAULT_COEFFICIENT = 16

#: Let-expansion guard: beyond this many nodes the expansion is abandoned
#: and occurrences come from the liveness dataflow of
#: :func:`repro.analysis.absint.demanded_occurrences` instead (same count,
#: computed without materializing the expansion); the event is surfaced to
#: the analyzer as a TLI022 diagnostic.
_EXPANSION_CAP = 200_000

#: Event tag recorded on the ``events`` out-parameter of
#: :func:`term_cost_profile` when the expansion guard trips.
EXPANSION_GUARD_EVENT = "expansion-guard"


@dataclass(frozen=True)
class DatabaseStats:
    """The database-size quantities the cost polynomials range over."""

    atoms: int      # total constant occurrences: sum of arity * |r|
    tuples: int     # total tuple count
    domain: int     # |active domain|
    relations: int

    @staticmethod
    def of(database: Database) -> "DatabaseStats":
        atoms = 0
        tuples = 0
        for _, relation in database:
            atoms += relation.arity * len(relation)
            tuples += len(relation)
        return DatabaseStats(
            atoms=atoms,
            tuples=tuples,
            domain=len(database.active_domain()),
            relations=len(database),
        )

    def as_dict(self) -> dict:
        return {
            "atoms": self.atoms,
            "tuples": self.tuples,
            "domain": self.domain,
            "relations": self.relations,
        }


@dataclass(frozen=True)
class CostProfile:
    """A database-independent cost polynomial for one registered plan.

    ``bound(stats)`` instantiates it against concrete database statistics;
    the result is measured in NBE evaluation steps (see
    :func:`repro.lam.nbe.nbe_normalize_counted`).
    """

    kind: str            # "term" | "fixpoint"
    size: int            # AST size of the plan (compiled tower if fixpoint)
    degree: int          # scan degree (see module docstring)
    stage_arity: int     # fixpoint output arity k; 0 for term plans
    coefficient: int = DEFAULT_COEFFICIENT
    #: Fixpoint stage multiplier: "atoms" charges the syntactic
    #: ``(N+2)^k``; "domain" the abstract-interpretation cap ``D^k + 2``
    #: (the inflationary crank runs at most ``|D|^k`` stages plus the
    #: initial and convergence ones, and ``D^k + 2 <= (N+2)^k`` always).
    stage_cap: str = "atoms"

    def bound(self, stats: DatabaseStats) -> int:
        base = stats.atoms + 2
        if self.kind == "fixpoint":
            k = self.stage_arity
            if self.stage_cap == "domain":
                stages = stats.domain ** k + 2
            else:
                stages = base ** k
            stage_atoms = stats.atoms + k * (max(stats.domain, 1) ** k) + 2
            per_stage = self.size * stage_atoms ** self.degree
            return self.coefficient * stages * per_stage
        return self.coefficient * self.size * base ** self.degree

    def describe(self) -> str:
        if self.kind == "fixpoint":
            if self.stage_cap == "domain":
                stages = f"(D^{self.stage_arity}+2)"
            else:
                stages = f"(N+2)^{self.stage_arity}"
            return (
                f"{self.coefficient}·{self.size}·{stages}"
                f"·(N+k·D^k+2)^{self.degree}"
            )
        return f"{self.coefficient}·{self.size}·(N+2)^{self.degree}"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "degree": self.degree,
            "stage_arity": self.stage_arity,
            "coefficient": self.coefficient,
            "stage_cap": self.stage_cap,
            "formula": self.describe(),
        }


def _free_occurrences(term: Term, names: Sequence[str]) -> int:
    """Count free occurrences of ``names`` in ``term`` (shadow-aware)."""
    targets = set(names)
    count = 0
    stack = [(term, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Var):
            if node.name in targets and node.name not in bound:
                count += 1
        elif isinstance(node, Abs):
            stack.append((node.body, bound | {node.var}))
        elif isinstance(node, App):
            stack.append((node.fn, bound))
            stack.append((node.arg, bound))
        elif isinstance(node, Let):
            stack.append((node.bound, bound))
            stack.append((node.body, bound | {node.var}))
    return count


def _count_lets(term: Term) -> int:
    from repro.lam.terms import subterms

    return sum(1 for node in subterms(term) if isinstance(node, Let))


def _strip_binders(term: Term, count: Optional[int]):
    """Strip up to ``count`` leading binders (all of them when ``None``);
    returns the stripped names and the remaining body."""
    names = []
    node = term
    while isinstance(node, Abs) and (count is None or len(names) < count):
        names.append(node.var)
        node = node.body
    return names, node


def term_cost_profile(
    term: Term,
    *,
    input_count: Optional[int] = None,
    output_arity: int = 0,
    coefficient: int = DEFAULT_COEFFICIENT,
    events: Optional[list] = None,
) -> CostProfile:
    """The cost profile of a term plan ``λR1 ... λRl. body``.

    ``input_count`` fixes how many leading binders are database inputs;
    by default the whole binder prefix is (which matches how the engines
    apply a plan to every encoded relation of the database).

    ``events``, when given, collects ``(tag, message)`` pairs for
    noteworthy estimation events — currently only
    :data:`EXPANSION_GUARD_EVENT`, recorded when the let-expansion guard
    trips and the occurrence count comes from the liveness dataflow
    instead of the materialized expansion.
    """
    names, counted_on = _strip_binders(term, input_count)
    lets = _count_lets(counted_on)
    occurrences: Optional[int] = None
    if lets:
        from repro.lam.terms import expand_lets

        # Reuse through a let multiplies scans; expand when affordable so
        # the occurrence count sees every copy.
        expanded = None
        if term_size(counted_on) <= _EXPANSION_CAP:
            try:
                expanded = expand_lets(counted_on)
            except RecursionError:  # pragma: no cover - pathological nesting
                expanded = None
            if (
                expanded is not None
                and term_size(expanded) > _EXPANSION_CAP
            ):
                expanded = None
        if expanded is not None:
            counted_on = expanded
        else:
            # Guard tripped: the backward multiplicity dataflow computes
            # the same count the expansion would, without materializing
            # it.  Surfaced so the analyzer can report TLI022.
            from repro.analysis.absint import demanded_occurrences

            occurrences = demanded_occurrences(counted_on, names)
            if events is not None:
                events.append(
                    (
                        EXPANSION_GUARD_EVENT,
                        "let-expansion guard tripped "
                        f"({term_size(counted_on)} nodes > "
                        f"{_EXPANSION_CAP}); occurrence count "
                        f"({occurrences}) derived by liveness dataflow "
                        "instead of expansion",
                    )
                )

    if occurrences is None:
        occurrences = _free_occurrences(counted_on, names)
    degree = max(occurrences, output_arity)
    return CostProfile(
        kind="term",
        size=max(term_size(term), 1),
        degree=degree,
        stage_arity=0,
        coefficient=coefficient,
    )


def fixpoint_cost_profile(
    query,  # FixpointQuery; untyped to avoid an import cycle
    compiled: Term,
    *,
    coefficient: int = DEFAULT_COEFFICIENT,
) -> CostProfile:
    """The cost profile of a Theorem 4.2 fixpoint tower."""
    from repro.relalg.ast import Base, nodes

    k = query.output_arity
    b = sum(
        1 for node in nodes(query.effective_step()) if isinstance(node, Base)
    )
    return CostProfile(
        kind="fixpoint",
        size=max(term_size(compiled), 1),
        degree=b + 2 * k,
        stage_arity=k,
        coefficient=coefficient,
    )
