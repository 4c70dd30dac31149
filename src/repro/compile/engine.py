"""The ``"ra"`` engine façade: compile once, execute on sets forever.

:func:`compile_term_plan` runs lowering + physical planning for a
certified term plan and memoizes the result by the plan's alpha-invariant
digest, so the service compiles each registered plan at most once.
:func:`compile_decision` wraps the outcome as a :class:`CompileDecision`
— the record the catalog turns into a TLI028 ("compiled") or TLI029
("compile fallback") diagnostic and EXPLAIN carries in its static
section.

Execution (:meth:`CompiledTermPlan.execute`) never touches the lambda
runtime: rows come straight from the set-backed executor and the run is
handed back as a relation.  No Church encoding is built on this path —
the serving layer rebuilds the answer's term only when a caller reads
it (:func:`repro.service.engines.relation_term`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.compile import executor as _executor
from repro.compile.ir import Node, describe, summarize
from repro.compile.lower import LoweringError, lower_term_plan
from repro.compile.planner import plan as plan_physical
from repro.db.decode import DecodedRelation
from repro.db.relations import Database, Relation
from repro.lam.terms import Term, digest
from repro.lru import BoundedLRU
from repro.queries.fixpoint import FixpointQuery

#: Static plan-tree depth beyond which execution is refused: the
#: tree-walking executor recurses along the *static* IR, so the depth
#: bound keeps it comfortably inside the interpreter's stack.
MAX_PLAN_DEPTH = 200


class CompileFallback(Exception):
    """The plan cannot be compiled; ``reason`` tags the taxonomy entry."""

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class CompileDecision:
    """What the compiler decided for a plan (EXPLAIN's static record)."""

    status: str  # "compiled" | "fallback"
    kind: str  # "term" | "fixpoint"
    summary: str  # one-line operator chain or fallback reason
    reason: Optional[str] = None  # fallback taxonomy tag
    tree: Optional[Dict[str, object]] = None  # operator tree (compiled)

    @property
    def compiled(self) -> bool:
        return self.status == "compiled"

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "status": self.status,
            "kind": self.kind,
            "summary": self.summary,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.tree is not None:
            payload["tree"] = self.tree
        return payload


@dataclass(frozen=True)
class CompiledRun:
    """One execution of a compiled term plan."""

    relation: Relation
    decoded: DecodedRelation
    ops: int


@dataclass(frozen=True)
class CompiledTermPlan:
    """A term plan lowered and physically planned, ready to execute."""

    input_names: Tuple[str, ...]
    input_arities: Tuple[int, ...]
    output_arity: int
    body: Node

    @property
    def decision(self) -> CompileDecision:
        return CompileDecision(
            status="compiled",
            kind="term",
            summary=summarize(self.body),
            tree=describe(self.body),
        )

    def execute(self, database: Database) -> CompiledRun:
        rows, ops = _executor.execute(
            self.body, self.input_names, database, self.input_arities
        )
        relation = Relation.deduplicated(self.output_arity, rows)
        decoded = DecodedRelation(
            relation=relation,
            raw_tuples=tuple(rows),
            had_duplicates=len(rows) != len(relation),
            eta_variant=False,
        )
        return CompiledRun(relation=relation, decoded=decoded, ops=ops)


def _depth(node: Node) -> int:
    children = []
    for attr in ("body", "tail", "then", "else_"):
        child = getattr(node, attr, None)
        if isinstance(child, Node):
            children.append(child)
    if not children:
        return 1
    return 1 + max(_depth(child) for child in children)


#: Outcomes by (plan digest, input arities, output arity): the 256 most
#: recently used plans and fallbacks.
_cache: BoundedLRU[
    Tuple[str, Tuple[int, ...], int],
    "CompiledTermPlan | CompileFallback",
] = BoundedLRU(256)


def compile_term_plan(
    term: Term, input_arities: Sequence[int], output_arity: int
) -> CompiledTermPlan:
    """Compile a term plan, memoized by plan digest + signature.

    Raises :class:`CompileFallback` (also memoized — recompiling a plan
    that cannot lower would re-pay the normalization) when the plan
    falls outside the liftable grammar.
    """
    key = (digest(term), tuple(input_arities), output_arity)
    cached = _cache.get(key)
    if cached is not None:
        if isinstance(cached, CompileFallback):
            raise cached
        return cached
    try:
        lowered = lower_term_plan(term, input_arities, output_arity)
        body = plan_physical(lowered.body)
        if _depth(body) > MAX_PLAN_DEPTH:
            raise LoweringError(
                "plan-too-deep", f"operator depth > {MAX_PLAN_DEPTH}"
            )
        compiled = CompiledTermPlan(
            input_names=lowered.input_names,
            input_arities=lowered.input_arities,
            output_arity=output_arity,
            body=body,
        )
        outcome: "CompiledTermPlan | CompileFallback" = compiled
    except LoweringError as exc:
        outcome = CompileFallback(exc.reason, exc.detail)
    _cache.put(key, outcome)
    if isinstance(outcome, CompileFallback):
        raise outcome
    return outcome


def compile_decision(
    term: Term, input_arities: Sequence[int], output_arity: int
) -> CompileDecision:
    """The decision record for a term plan (never raises)."""
    try:
        return compile_term_plan(term, input_arities, output_arity).decision
    except CompileFallback as exc:
        return CompileDecision(
            status="fallback",
            kind="term",
            summary=str(exc),
            reason=exc.reason,
        )


def decision_for_fixpoint(query: FixpointQuery) -> CompileDecision:
    """Fixpoint steps are already RA — they always compile."""
    from repro.compile.fixpoint import step_read_set

    reads = ",".join(step_read_set(query)) or "-"
    return CompileDecision(
        status="compiled",
        kind="fixpoint",
        summary=(
            f"set-fixpoint(arity={query.output_arity}, reads={reads})"
        ),
    )
