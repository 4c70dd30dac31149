"""The analyzer driver: one call per query plan, all passes in order.

:func:`analyze_term` runs the term passes (well-formedness, typing /
order-budget certification, iterator-accumulator check, cost profile) and
:func:`analyze_fixpoint` runs the spec-level passes plus the tower cost
profile; :func:`analyze` dispatches on the plan shape.  Each returns an
:class:`~repro.analysis.diagnostics.AnalysisReport` — the catalog attaches
it to the registered entry, and ``repro lint`` renders it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple, TypeVar, Union

from repro.analysis.cost import (
    CostProfile,
    DatabaseStats,
    fixpoint_cost_profile,
    term_cost_profile,
)
from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.fixpoint_passes import fixpoint_pass
from repro.analysis.term_passes import (
    accumulator_pass,
    body_typing_prefix,
    structural_pass,
    typing_pass,
)
from repro.lam.terms import Term
from repro.queries.fixpoint import FixpointQuery, build_fixpoint_query
from repro.queries.language import QueryArity

#: Derivation order of every Theorem 4.2 fixpoint tower: the towers are
#: TLI=1 plans (order 4) regardless of the step expression.
FIXPOINT_TOWER_ORDER = 4


def analyze_term(
    term: Term,
    *,
    name: str = "<term>",
    signature: Optional[QueryArity] = None,
    max_order: Optional[int] = None,
    known_constants: Optional[Set[str]] = None,
    stats: Optional[DatabaseStats] = None,
    default_fuel: Optional[int] = None,
    target_schema: Optional[Sequence[Tuple[str, int]]] = None,
) -> AnalysisReport:
    """Run every term-level pass over ``term`` and return the report.

    ``signature`` certifies the plan against a declared arity signature
    (Lemma 3.9) and pins the TLI= fragment; without one the term is typed
    standalone.  ``known_constants`` enables the unknown-constant check;
    ``stats``/``default_fuel`` enable the TLI011 fuel-headroom check.
    ``target_schema`` — an ordered ``(name, arity)`` database schema —
    enables the schema-contract checks (TLI024/TLI025).
    """
    report = AnalysisReport(name=name, kind="term")
    structural_pass(term, report, known_constants=known_constants)
    typing = typing_pass(
        term, report, signature=signature, max_order=max_order
    )
    # The typing result's occurrence paths are relative to the typed body
    # (the plan minus its input binders) when a signature is given.
    _, body = body_typing_prefix(term, signature)
    accumulator_pass(body, report, typing)

    if typing is not None:
        input_count = len(signature.inputs) if signature is not None else None
        output_arity = signature.output if signature is not None else 0
        events: list = []
        report.cost = term_cost_profile(
            term,
            input_count=input_count,
            output_arity=output_arity,
            events=events,
        )
        for _tag, message in events:
            report.add("TLI022", message)

        effective = _simplify_pass(term, report)
        facts = _absint_pass(effective, report, input_count=input_count)
        if signature is not None:
            _provenance_pass(
                report, signature, facts, target_schema=target_schema
            )
        _certify_cost(report, stats=stats, default_fuel=default_fuel)
        if signature is not None:
            _distribution_pass(report, effective, signature)
    return report


def _simplify_pass(term: Term, report: AnalysisReport) -> Term:
    """Run the plan simplifier; returns the plan the runtime should
    evaluate (the simplified one when any rewrite applied)."""
    from repro.analysis.simplify import simplify_term

    outcome = simplify_term(term)
    if outcome.skipped is not None:
        report.add("TLI022", outcome.skipped)
        return term
    if outcome.dead_bindings:
        names = ", ".join(outcome.dead_bindings)
        report.add(
            "TLI019",
            f"eliminated dead let-binding(s) {names}: never demanded by "
            "the liveness dataflow; the simplified plan skips their "
            "let-steps entirely",
        )
    if outcome.changed:
        report.simplified = outcome.term
    return outcome.term if outcome.changed else term


def _absint_pass(
    term: Term,
    report: AnalysisReport,
    *,
    input_count: Optional[int],
) -> Optional["AbstractFacts"]:  # noqa: F821 - see analysis.absint
    """Run the abstract interpreter; adopt a tightened profile (TLI020).

    Returns the abstract facts so the provenance pass can reuse the scan
    counts without re-walking the normal form.
    """
    from repro.analysis.absint import tighten_term_profile

    if report.cost is None:
        return None
    tightened, facts = tighten_term_profile(
        term, base=report.cost, input_count=input_count
    )
    report.facts = facts.as_dict()
    if tightened is not None:
        report.tightened_cost = tightened
        report.add(
            "TLI020",
            f"abstract interpretation tightened the cost certificate: "
            f"{report.cost.describe()} -> {tightened.describe()} "
            f"({len(facts.scan_sites)} scan site(s), loop-entry degree "
            f"{facts.scan_degree})",
        )
    return facts


def _provenance_pass(
    report: AnalysisReport,
    signature: "QueryArity",
    facts: Optional["AbstractFacts"],  # noqa: F821 - see analysis.absint
    *,
    target_schema: Optional[Sequence[Tuple[str, int]]],
) -> None:
    """Derive the read-set certificate (TLI023/TLI027) and, when a target
    schema is known, check the plan's schema contract (TLI024/TLI025)."""
    from repro.analysis.absint import AbstractFacts
    from repro.analysis.provenance import (
        check_schema_contract,
        term_provenance,
    )

    if facts is None:
        facts = AbstractFacts(
            kind="term", fallback="no abstract facts available"
        )
    provenance = term_provenance(signature, facts)
    report.provenance = provenance
    if provenance.exact:
        report.add("TLI023", f"read-set: {provenance.describe()}")
    else:
        report.add(
            "TLI027",
            f"read-set analysis fell back to the conservative top "
            f"({provenance.fallback}); every input is treated as "
            f"scanned with unbounded multiplicity",
        )
    if target_schema is not None:
        mismatches, unused = check_schema_contract(
            provenance, target_schema
        )
        for message in mismatches:
            report.add("TLI024", message)
        for message in unused:
            report.add("TLI025", message)


def _distribution_pass(
    report: AnalysisReport,
    term: Term,
    signature: "QueryArity",
) -> None:
    """Classify the plan for sharded execution (TLI017/TLI018), refine it
    by the read-set (TLI026), and note when the per-shard fuel split
    rides the tightened certificate (TLI021)."""
    # Imported lazily: the shard planner imports this module.
    from repro.shard.planner import (
        plan_term_distribution,
        refine_distribution,
    )

    provenance = report.provenance
    input_names: Optional[Tuple[str, ...]] = None
    if provenance is not None and provenance.exact:
        names = tuple(read.name for read in provenance.reads)
        if len(set(names)) == len(names):
            input_names = names
    plan = plan_term_distribution(term, signature, input_names=input_names)
    if provenance is not None and provenance.exact:
        scanned = {read.name for read in provenance.scanned_reads()}
        plan, dropped = refine_distribution(plan, scanned)
        if dropped:
            report.add(
                "TLI026",
                f"distribution plan refined by the read-set: unscanned "
                f"input(s) {', '.join(dropped)} dropped from the "
                f"partition candidates; shard fuel is priced against "
                f"read-set-restricted statistics",
            )
    report.add(plan.code, f"[{plan.mode}] {plan.reason}")
    if plan.distributable and report.tightened_cost is not None:
        report.add(
            "TLI021",
            "per-shard fuel budgets derive from the tightened "
            f"certificate {report.tightened_cost.describe()} instantiated "
            "at each shard's statistics (instead of the syntactic "
            f"envelope {report.cost.describe()})",
        )


def analyze_fixpoint(
    query: FixpointQuery,
    *,
    name: str = "<fixpoint>",
    compiled: Optional[Term] = None,
    max_order: Optional[int] = None,
    stats: Optional[DatabaseStats] = None,
    default_fuel: Optional[int] = None,
    target_schema: Optional[Sequence[Tuple[str, int]]] = None,
) -> AnalysisReport:
    """Run the spec-level passes over a fixpoint query and return the
    report.  ``compiled`` (the Theorem 4.2 tower) is built on demand when
    not supplied; it only sizes the cost profile.  ``target_schema``
    enables the schema-contract checks (TLI024/TLI025)."""
    report = AnalysisReport(name=name, kind="fixpoint")
    fixpoint_pass(query, report)
    if not report.ok:
        return report

    report.order = FIXPOINT_TOWER_ORDER
    report.fragment = f"TLI={FIXPOINT_TOWER_ORDER - 3}"
    report.add(
        "TLI006",
        f"derivation order {report.order} (Theorem 4.2 tower); the query "
        f"lands in {report.fragment}",
    )
    if max_order is not None and report.order > max_order:
        report.add(
            "TLI007",
            f"derivation order {report.order} exceeds the declared budget "
            f"{max_order} (fragment budget TLI={max(max_order - 3, 0)})",
        )

    if compiled is None:
        compiled = build_fixpoint_query(query)
    report.cost = fixpoint_cost_profile(query, compiled)

    from repro.analysis.absint import (
        abstract_fixpoint_facts,
        tighten_fixpoint_profile,
    )

    report.facts = abstract_fixpoint_facts(query).as_dict()

    from repro.analysis.provenance import (
        check_schema_contract,
        fixpoint_provenance,
    )

    report.provenance = fixpoint_provenance(query)
    report.add("TLI023", f"read-set: {report.provenance.describe()}")
    if target_schema is not None:
        mismatches, unused = check_schema_contract(
            report.provenance, target_schema
        )
        for message in mismatches:
            report.add("TLI024", message)
        for message in unused:
            report.add("TLI025", message)

    report.tightened_cost = tighten_fixpoint_profile(report.cost)
    report.add(
        "TLI020",
        "abstract interpretation capped the crank's stage multiplier by "
        f"the domain: {report.cost.describe()} -> "
        f"{report.tightened_cost.describe()} (the inflationary crank "
        f"runs at most |D|^{query.output_arity} stages)",
    )
    _certify_cost(report, stats=stats, default_fuel=default_fuel)

    # Imported lazily: the shard planner imports this module.
    from repro.shard.planner import plan_fixpoint_distribution

    plan = plan_fixpoint_distribution(query)
    report.add(plan.code, f"[{plan.mode}] {plan.reason}")
    if plan.distributable:
        report.add(
            "TLI021",
            "per-shard fuel budgets derive from the tightened "
            f"certificate {report.tightened_cost.describe()} instantiated "
            "at each shard's statistics (instead of the syntactic "
            f"envelope {report.cost.describe()})",
        )
    return report


def analyze(
    plan: Union[Term, FixpointQuery],
    *,
    name: str = "<plan>",
    signature: Optional[QueryArity] = None,
    max_order: Optional[int] = None,
    known_constants: Optional[Set[str]] = None,
    stats: Optional[DatabaseStats] = None,
    default_fuel: Optional[int] = None,
    target_schema: Optional[Sequence[Tuple[str, int]]] = None,
) -> AnalysisReport:
    """Dispatch on the plan shape (``signature`` applies to terms only)."""
    if isinstance(plan, FixpointQuery):
        return analyze_fixpoint(
            plan,
            name=name,
            max_order=max_order,
            stats=stats,
            default_fuel=default_fuel,
            target_schema=target_schema,
        )
    return analyze_term(
        plan,
        name=name,
        signature=signature,
        max_order=max_order,
        known_constants=known_constants,
        stats=stats,
        default_fuel=default_fuel,
        target_schema=target_schema,
    )


def _certify_cost(
    report: AnalysisReport,
    *,
    stats: Optional[DatabaseStats],
    default_fuel: Optional[int],
) -> None:
    """Emit the TLI010 certificate (and TLI011 when the bound outgrows the
    deployment's default fuel against concrete database statistics)."""
    profile = report.cost
    if profile is None:
        return
    message = f"static cost bound {profile.describe()}"
    if stats is not None:
        message += (
            f"; on N={stats.atoms}, D={stats.domain}: "
            f"{profile.bound(stats)} steps"
        )
    report.add("TLI010", message)
    # Fuel derivation rides the tightened certificate when one was
    # adopted, so the headroom check does too.
    effective = report.tightened_cost or profile
    if (
        stats is not None
        and default_fuel is not None
        and effective.bound(stats) > default_fuel
    ):
        report.add(
            "TLI011",
            f"static cost bound {effective.bound(stats)} exceeds the "
            f"default fuel budget {default_fuel}; requests against a "
            f"database this size need a derived or explicit budget",
        )


_Default = TypeVar("_Default", int, None)


def fuel_budget(
    profile: Optional[CostProfile],
    stats: Optional[DatabaseStats],
    *,
    default: _Default,
    floor: int = 10_000,
) -> Union[int, _Default]:
    """The per-request fuel the runtime should grant a plan.

    With a cost certificate and database statistics, the static bound
    (never below ``floor``) replaces the flat ``default``: Theorem 5.1
    guarantees honest plans finish inside it, so anything that exhausts it
    is a runaway.  Without a certificate the flat default stands
    (``default=None`` leaves the choice of a default to the caller).
    """
    if profile is None or stats is None:
        return default
    return max(profile.bound(stats), floor)
