"""The diagnostic framework of the static query certifier.

Every finding of the analyzer is a :class:`Diagnostic` with a *stable*
code (``TLI001``, ``TLI002``, ...), a severity, a human message, and —
when it concerns a specific subterm — a term path (the child-index tuples
the type-inference engines also use, see
:class:`repro.types.infer.TypingResult`).  A run over one query produces
an :class:`AnalysisReport`, which also carries the positive certificates:
the derivation order, the TLI= fragment, and the static cost profile.

Codes are registered in :data:`CODES`; ``docs/analysis.md`` documents each
one with a minimal triggering example, and a test asserts the registry and
the docs stay in sync.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lam.terms import Abs, App, Let, Term


class Severity(enum.IntEnum):
    """Diagnostic severities, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one stable diagnostic code."""

    code: str
    title: str
    severity: Severity
    summary: str


#: The stable diagnostic codes.  Never renumber; retire codes by leaving
#: the entry in place and no longer emitting it.
CODES: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo(
            "TLI001",
            "free variable",
            Severity.ERROR,
            "A query plan must be closed: every variable is bound by a "
            "lambda, a let, or one of the declared relation inputs.",
        ),
        CodeInfo(
            "TLI002",
            "unknown constant",
            Severity.WARNING,
            "The term mentions an atomic constant that appears in no "
            "registered database; the comparison can never succeed.",
        ),
        CodeInfo(
            "TLI003",
            "shadowed binder",
            Severity.WARNING,
            "A binder reuses a name already in scope; the outer binding "
            "is unreachable inside, which is a frequent source of wrong "
            "iterator bodies.",
        ),
        CodeInfo(
            "TLI004",
            "unused iterator accumulator",
            Severity.WARNING,
            "A loop body handed to a relation iterator ignores its "
            "accumulator binder, so the fold degenerates to its first "
            "element (the rest of the list is dead).",
        ),
        CodeInfo(
            "TLI005",
            "ill-typed term",
            Severity.ERROR,
            "The term has no TLC= typing, so strong normalization — and "
            "with it every Section 5 complexity guarantee — is void.",
        ),
        CodeInfo(
            "TLI006",
            "order certificate",
            Severity.INFO,
            "The principal derivation order and the TLI=_i fragment the "
            "query lands in (Definition 3.7: fragment index = order - 3).",
        ),
        CodeInfo(
            "TLI007",
            "order budget exceeded",
            Severity.ERROR,
            "The derivation order exceeds the declared budget; the query "
            "leaves the complexity class the deployment certified for "
            "(Theorems 5.1/5.2).",
        ),
        CodeInfo(
            "TLI008",
            "equality at non-atomic type",
            Severity.ERROR,
            "``Eq`` is the constant o -> o -> g -> g -> g: its first two "
            "arguments must be atoms, the delta rule is undefined on "
            "abstractions or boolean results.",
        ),
        CodeInfo(
            "TLI009",
            "not a query term for its signature",
            Severity.ERROR,
            "The term does not type as a query of the declared arity "
            "signature (Lemma 3.9): wrong binder count, wrong result "
            "type, or a result accumulator forced to a concrete type.",
        ),
        CodeInfo(
            "TLI010",
            "cost certificate",
            Severity.INFO,
            "The static normalization cost profile: a polynomial in the "
            "database size that upper-bounds NBE evaluation steps and "
            "seeds the runtime's fuel budget.",
        ),
        CodeInfo(
            "TLI011",
            "cost bound above default fuel",
            Severity.WARNING,
            "Against the given database statistics the static cost bound "
            "exceeds the service's default fuel budget; requests must "
            "carry a derived or explicit budget to finish.",
        ),
        CodeInfo(
            "TLI012",
            "fixpoint step schema error",
            Severity.ERROR,
            "The step expression of a fixpoint query references unknown "
            "relations or combines arities inconsistently.",
        ),
        CodeInfo(
            "TLI013",
            "stage explosion",
            Severity.WARNING,
            "The crank runs |D|^k stages for output arity k; k >= 3 makes "
            "the stage count cubic (or worse) in the domain.",
        ),
        CodeInfo(
            "TLI014",
            "non-monotone non-inflationary step",
            Severity.WARNING,
            "A non-inflationary step using difference or negation need "
            "not be monotone, so the |D|^k-stage crank may stop short of "
            "a fixpoint (or oscillate).",
        ),
        CodeInfo(
            "TLI015",
            "unused fixpoint input",
            Severity.WARNING,
            "A declared input relation never appears in the step "
            "expression; it still pads the crank and the active domain.",
        ),
        CodeInfo(
            "TLI016",
            "step ignores the fixpoint variable",
            Severity.INFO,
            "The step never reads the current stage, so the iteration "
            "converges after one stage; a plain TLI=0 query would do.",
        ),
        CodeInfo(
            "TLI017",
            "plan is shard-distributable",
            Severity.INFO,
            "Every input relation is consumed by a single tuple-local "
            "fold (or the plan joins inputs so that one side can be "
            "split with the rest broadcast), so partitioned evaluation "
            "followed by the canonical merge equals single-shard "
            "evaluation by fold/concatenation distributivity.",
        ),
        CodeInfo(
            "TLI018",
            "plan is not partition-distributable",
            Severity.INFO,
            "The plan re-iterates an input, folds one inside another "
            "(a self-join), or depends on a global property of the "
            "whole database (active domain, tuple order), so shards "
            "cannot evaluate it independently; it runs in-process.",
        ),
        CodeInfo(
            "TLI019",
            "dead subplan eliminated",
            Severity.INFO,
            "A let-binding is never demanded by its body (liveness "
            "dataflow), so the simplifier removed it; the plan pays one "
            "less let-step per evaluation and the registered simplified "
            "plan no longer contains the subterm.",
        ),
        CodeInfo(
            "TLI020",
            "tightened cost certificate",
            Severity.INFO,
            "Abstract interpretation over the plan's data-independent "
            "normal form produced a sharper cost polynomial than the "
            "syntactic occurrence count; the message carries the "
            "before/after formulas and the runtime derives fuel from "
            "the tightened one.",
        ),
        CodeInfo(
            "TLI021",
            "cardinality-refined shard fuel split",
            Severity.INFO,
            "The plan is shard-distributable and carries a tightened "
            "cost certificate, so the shard planner's per-shard fuel "
            "budgets are derived from the abstract cardinality facts "
            "instead of the loose syntactic envelope.",
        ),
        CodeInfo(
            "TLI022",
            "analysis guard: simplification or expansion skipped",
            Severity.WARNING,
            "A size guard stopped an analysis transformation: either "
            "the plan simplifier skipped a plan too large to rewrite, "
            "or the cost estimator's let-expansion guard tripped and "
            "the occurrence count came from the liveness dataflow "
            "instead of the materialized expansion.",
        ),
        CodeInfo(
            "TLI023",
            "read-set certificate",
            Severity.INFO,
            "The static read-set of the plan: which input relations it "
            "scans, with per-relation scan multiplicities from the "
            "abstract scan-count domain.  Unscanned relations cannot "
            "influence the result, so cached results survive their "
            "updates (relation-granular invalidation).",
        ),
        CodeInfo(
            "TLI024",
            "schema contract violation",
            Severity.ERROR,
            "The plan's schema contract does not fit the target "
            "database: wrong relation count for a positional term "
            "plan, wrong arity, or a missing named fixpoint input.  "
            "Running anyway produces a stuck encoding that fails only "
            "at decode time.",
        ),
        CodeInfo(
            "TLI025",
            "unused relation in target database",
            Severity.INFO,
            "The target database supplies a relation the plan never "
            "scans; harmless, but updates to it will never invalidate "
            "this plan's cached results.",
        ),
        CodeInfo(
            "TLI026",
            "read-set-refined shard plan",
            Severity.INFO,
            "The distribution plan was derived over the plan's read-set "
            "only: relations never scanned were dropped from the "
            "partition candidates and shard fuel is priced against "
            "read-set-restricted database statistics.",
        ),
        CodeInfo(
            "TLI027",
            "provenance fallback on conservative top",
            Severity.INFO,
            "The read-set analysis fell back to the conservative top "
            "(every input potentially scanned, unbounded multiplicity); "
            "caching degrades to whole-version invalidation and "
            "admission prices against the full database statistics.",
        ),
        CodeInfo(
            "TLI028",
            "compiled to relational algebra",
            Severity.INFO,
            "The plan's normal form lowered to a set-backed "
            "relational-algebra program (hash joins/probes, no "
            "beta-reduction on the hot path); the service runs it on "
            "the \"ra\" engine, with NBE kept as differential oracle "
            "and runtime fallback.",
        ),
        CodeInfo(
            "TLI029",
            "compile fallback to reduction",
            Severity.INFO,
            "The plan falls outside the compiler's liftable normal-form "
            "grammar (the message carries the fallback-taxonomy reason); "
            "evaluation stays on the certified reduction engines — a "
            "correctness-neutral, performance-only decision.",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    #: Child-index path from the root of the analyzed term ("()" is the
    #: whole term); ``None`` when the finding has no term location (e.g.
    #: fixpoint-spec findings).
    path: Optional[Tuple[int, ...]] = None
    #: Human rendering of ``path`` (e.g. ``body.fn.arg``), plus a snippet.
    location: str = ""

    @property
    def title(self) -> str:
        info = CODES.get(self.code)
        return info.title if info else self.code

    def format(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return f"{self.code} {self.severity.label}{where}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "title": self.title,
            "message": self.message,
            "path": list(self.path) if self.path is not None else None,
            "location": self.location or None,
        }


_CHILD_LABELS = {
    Abs: ("body",),
    App: ("fn", "arg"),
    Let: ("bound", "body"),
}


def describe_path(term: Term, path: Tuple[int, ...]) -> str:
    """Render a child-index path as dotted constructor steps, with a
    snippet of the subterm it lands on (for messages)."""
    labels: List[str] = []
    node = term
    for index in path:
        for cls, names in _CHILD_LABELS.items():
            if isinstance(node, cls) and index < len(names):
                labels.append(names[index])
                node = (
                    node.body
                    if names[index] == "body"
                    else node.fn if names[index] == "fn"
                    else node.arg if names[index] == "arg"
                    else node.bound
                )
                break
        else:
            labels.append(str(index))
            break
    snippet = node.pretty()
    if len(snippet) > 40:
        snippet = snippet[:37] + "..."
    dotted = ".".join(labels) if labels else "root"
    return f"{dotted} ({snippet})"


@dataclass
class AnalysisReport:
    """All findings and certificates for one analyzed query."""

    name: str
    kind: str  # "term" | "fixpoint"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    order: Optional[int] = None
    fragment: Optional[str] = None
    cost: Optional["CostProfile"] = None  # noqa: F821 - see analysis.cost
    #: The absint-tightened profile, when adopted (TLI020); the syntactic
    #: profile in ``cost`` is kept for comparison and cache continuity.
    tightened_cost: Optional["CostProfile"] = None  # noqa: F821
    #: The simplified plan, when the simplifier changed it (TLI019 etc.);
    #: the runtime evaluates this one.
    simplified: Optional[Term] = None
    #: Abstract facts (``AbstractFacts.as_dict()``) for ``lint --analyze``.
    facts: Optional[dict] = None
    #: The read-set / schema-contract certificate (TLI023/TLI027); the
    #: runtime keys caches and prices admission from it.
    provenance: Optional["ProvenanceFacts"] = None  # noqa: F821

    # -- accounting ----------------------------------------------------------

    def add(
        self,
        code: str,
        message: str,
        *,
        severity: Optional[Severity] = None,
        path: Optional[Tuple[int, ...]] = None,
        location: str = "",
    ) -> Diagnostic:
        resolved = (
            severity if severity is not None else CODES[code].severity
        )
        diagnostic = Diagnostic(
            code=code,
            severity=resolved,
            message=message,
            path=path,
            location=location,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.INFO]

    def codes(self) -> List[str]:
        seen: List[str] = []
        for diagnostic in self.diagnostics:
            if diagnostic.code not in seen:
                seen.append(diagnostic.code)
        return seen

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos allowed)."""
        return not self.errors()

    # -- rendering -----------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "order": self.order,
            "fragment": self.fragment,
            "cost": self.cost.as_dict() if self.cost is not None else None,
            "tightened_cost": (
                self.tightened_cost.as_dict()
                if self.tightened_cost is not None
                else None
            ),
            "simplified": self.simplified is not None,
            "facts": self.facts,
            "provenance": (
                self.provenance.as_dict()
                if self.provenance is not None
                else None
            ),
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def render(self, *, verbose: bool = False) -> str:
        """Multi-line text rendering (the ``repro lint`` output)."""
        headline = f"{self.name} [{self.kind}]"
        facts = []
        if self.order is not None:
            fragment = f" ({self.fragment})" if self.fragment else ""
            facts.append(f"order {self.order}{fragment}")
        if self.cost is not None:
            facts.append(f"cost {self.cost.describe()}")
        if self.tightened_cost is not None:
            facts.append(f"tightened {self.tightened_cost.describe()}")
        status = "ok" if self.ok else "FAIL"
        lines = [f"{headline}: {status}"
                 + (f" — {', '.join(facts)}" if facts else "")]
        for diagnostic in self.diagnostics:
            if diagnostic.severity == Severity.INFO and not verbose:
                continue
            lines.append(f"  {diagnostic.format()}")
        return "\n".join(lines)


def render_reports_json(reports: List[AnalysisReport]) -> dict:
    """The machine-readable batch shape of ``repro lint --json``."""
    return {
        "reports": [report.as_dict() for report in reports],
        "summary": {
            "analyzed": len(reports),
            "failed": sum(1 for r in reports if not r.ok),
            "errors": sum(len(r.errors()) for r in reports),
            "warnings": sum(len(r.warnings()) for r in reports),
        },
    }
