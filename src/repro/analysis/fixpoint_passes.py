"""Pass 5: fixpoint-query sanity checks (TLI012-TLI016).

These run on the :class:`~repro.queries.fixpoint.FixpointQuery` *spec*,
before (and independently of) compiling the Theorem 4.2 tower: schema
consistency of the step expression, stage-count sanity, monotonicity of
non-inflationary steps, and dead inputs.
"""

from __future__ import annotations

from typing import Set

from repro.analysis.diagnostics import AnalysisReport
from repro.errors import SchemaError
from repro.queries.fixpoint import FIX_NAME, FixpointQuery
from repro.relalg.ast import (
    Base,
    CondNot,
    Condition,
    Difference,
    RAExpr,
    nodes,
    schema_with_derived,
)


def _has_negation(expr: RAExpr) -> bool:
    def condition_negates(condition: Condition) -> bool:
        if isinstance(condition, CondNot):
            return True
        for attr in getattr(type(condition), "__slots__", ()):
            child = getattr(condition, attr)
            if isinstance(child, Condition) and condition_negates(child):
                return True
        return False

    for node in nodes(expr):
        if isinstance(node, Difference):
            return True
        condition = getattr(node, "condition", None)
        if isinstance(condition, Condition) and condition_negates(condition):
            return True
    return False


def fixpoint_pass(query: FixpointQuery, report: AnalysisReport) -> None:
    """All spec-level checks; populates order/fragment on success."""
    schema = query.schema()
    step_schema = dict(schema)
    step_schema[FIX_NAME] = query.output_arity
    step = query.effective_step()

    # TLI012: schema consistency (unknown relations, arity clashes, and a
    # step whose arity differs from the declared output arity).
    try:
        step_arity = step.arity(schema_with_derived(step_schema))
    except SchemaError as exc:
        report.add("TLI012", f"step expression is not schema-valid: {exc}")
        return
    if step_arity != query.output_arity:
        report.add(
            "TLI012",
            f"step produces arity {step_arity}, the fixpoint is declared "
            f"at arity {query.output_arity}",
        )
        return

    base_names: Set[str] = {
        node.name for node in nodes(step) if isinstance(node, Base)
    }

    # TLI015: dead inputs.
    for name, _ in query.input_schema:
        if name not in base_names and not any(
            base.endswith(name) and base.startswith("__")
            for base in base_names
        ):
            report.add(
                "TLI015",
                f"input relation {name!r} never appears in the step; it "
                f"still pads the crank and the active domain",
            )

    # TLI016: the stage never feeds back.  Checked on the *raw* step: the
    # inflationary wrapper injects FIX into the effective step, but a raw
    # step that ignores it still converges after one stage.
    raw_bases = {
        node.name
        for node in nodes(query.step)
        if isinstance(node, Base)
    }
    if FIX_NAME not in raw_bases:
        report.add(
            "TLI016",
            "the step ignores the fixpoint variable: the iteration "
            "converges after one stage (a plain TLI=0 query suffices)",
        )

    # TLI013: stage explosion.
    if query.output_arity >= 3:
        report.add(
            "TLI013",
            f"output arity {query.output_arity} cranks |D|^"
            f"{query.output_arity} stages; expect heavy evaluation even "
            f"on small domains",
        )

    # TLI014: possible non-convergence.
    if not query.inflationary and _has_negation(query.step):
        report.add(
            "TLI014",
            "non-inflationary step uses difference/negation: the step "
            "need not be monotone, so the crank may stop before (or "
            "oscillate around) a fixpoint",
        )
