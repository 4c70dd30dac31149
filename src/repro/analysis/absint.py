"""Abstract interpretation over query plans (the certifier's pass 5).

The Theorem 5.1 envelopes of :mod:`repro.analysis.cost` are *syntactic*:
the degree of the cost polynomial is the raw occurrence count of the
input binders in the let-expanded body, so a plan that mentions an input
twice in parallel (two sibling folds) is charged as if the folds were
nested.  This module recovers the lost precision with three cooperating
abstract domains, evaluated over the plan's *data-independent normal
form* (the same pre-normalization the shard planner performs):

* **Usage / liveness** — a backward dataflow with multiplicities over the
  ``let`` graph: :func:`demanded_occurrences` computes exactly the
  occurrence count the paper's let-expansion would produce, in one linear
  pass instead of a potentially exponential substitution, and
  :func:`let_liveness` reports which bindings are never demanded at all
  (the simplifier's dead-code facts).

* **Occurrence counting** — :func:`abstract_term_facts` walks the normal
  form's application spines and records every *scan site*: an occurrence
  of an input relation in head position, together with its fold-nesting
  depth.  A site at depth ``d`` is entered at most ``T^d`` times (one
  activation per enclosing loop iteration) and enumerates at most ``T``
  tuples per entry, so the total number of loop-body entries is bounded
  by ``sum_i T^(d_i + 1)`` — per input, an interval of scan counts
  replacing the syntactic ``q``.

* **Cardinality intervals** — output rows come from emission sites (the
  output constructor, or an input in copy/result position); a site at
  depth ``d`` emits at most ``T^d`` (resp. ``T^(d+1)``) rows, so the
  result cardinality is bounded by ``emit_sites * T^emit_degree`` —
  selections shrink the lower bound to zero, copy folds multiply, and
  fixpoint stage counts are capped by ``|D|^k`` (the inflationary crank
  adds at least one of the ``|D|^k`` candidate tuples per stage).

:func:`tighten_term_profile` turns the facts into a sharper
:class:`~repro.analysis.cost.CostProfile` — degree ``max_i(d_i + 1)``
instead of ``max(q, k)`` — and adopts it only under a dominance guard
(degree strictly reduced, or equal degree with a smaller constant), so a
plan the walk cannot classify keeps its syntactic envelope unchanged.
The tightened bound is still a sound envelope: every loop-body entry
costs at most the plan size in steps and readback is covered by the
emission-site accounting, which the differential benchmark gate
(``benchmarks/bench_certifier.py``) asserts against observed NBE steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.cost import DEFAULT_COEFFICIENT, CostProfile, DatabaseStats
from repro.lam.nbe import nbe_normalize_counted
from repro.lam.terms import (
    Abs,
    App,
    Const,
    EqConst,
    Let,
    Term,
    Var,
    binder_prefix,
    spine,
    term_size,
)

#: Depth cap for the data-independent pre-normalization (matches the
#: shard planner's cap).
NORMALIZE_MAX_DEPTH = 200_000

#: Step budget for the pre-normalization: a plan whose *data-independent*
#: normalization exceeds this is left on its syntactic envelope.
NORMALIZE_FUEL = 200_000

#: Normal forms larger than this are not walked (the spine walk is linear,
#: but facts on a megabyte normal form would not pay for themselves).
WALK_SIZE_CAP = 50_000


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``hi=None`` means unbounded above."""

    lo: int
    hi: Optional[int]

    def render(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"

    def as_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class ScanSite:
    """One occurrence of an input relation in fold/head position."""

    input_name: str
    depth: int       # enclosing fold-nesting depth (0 = top level)
    guarded: bool    # under an Eq branch (reached only when the test picks it)

    def as_dict(self) -> dict:
        return {
            "input": self.input_name,
            "depth": self.depth,
            "guarded": self.guarded,
        }


@dataclass
class AbstractFacts:
    """Everything the abstract interpreter learned about one plan."""

    kind: str                               # "term" | "fixpoint"
    fallback: Optional[str] = None          # walk aborted: syntactic model stands
    scan_sites: Tuple[ScanSite, ...] = ()
    scan_degree: int = 0                    # max_i (depth_i + 1); 0 = no scans
    input_scans: Dict[str, Interval] = None  # type: ignore[assignment]
    emit_sites: int = 0
    emit_degree: int = 0                    # rows <= emit_sites * T^emit_degree
    dead_bindings: Tuple[str, ...] = ()
    let_bindings: int = 0
    normalize_steps: int = 0                # data-independent normalization cost
    stage_interval: Optional[Interval] = None  # fixpoint stages: [0, |D|^k]

    def __post_init__(self) -> None:
        if self.input_scans is None:
            self.input_scans = {}

    def cardinality(self, stats: DatabaseStats) -> Interval:
        """The output-row interval instantiated at concrete statistics."""
        tuples = max(stats.tuples, 1)
        hi = self.emit_sites * tuples ** self.emit_degree
        return Interval(lo=0, hi=hi)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fallback": self.fallback,
            "scan_sites": [site.as_dict() for site in self.scan_sites],
            "scan_degree": self.scan_degree,
            "input_scans": {
                name: interval.as_dict()
                for name, interval in self.input_scans.items()
            },
            "emit_sites": self.emit_sites,
            "emit_degree": self.emit_degree,
            "dead_bindings": list(self.dead_bindings),
            "let_bindings": self.let_bindings,
            "normalize_steps": self.normalize_steps,
            "stage_interval": (
                self.stage_interval.as_dict()
                if self.stage_interval is not None
                else None
            ),
        }

    def render(self) -> List[str]:
        """Human-readable fact lines (the ``repro lint --analyze`` view)."""
        lines: List[str] = []
        if self.fallback is not None:
            lines.append(f"abstract interpretation fell back: {self.fallback}")
            return lines
        if self.kind == "fixpoint":
            if self.stage_interval is not None:
                lines.append(
                    f"stage interval {self.stage_interval.render()} "
                    f"(inflationary crank, capped by |D|^k)"
                )
            for name, interval in sorted(self.input_scans.items()):
                lines.append(
                    f"input {name}: {interval.render()} step occurrences"
                )
            return lines
        for name, interval in sorted(self.input_scans.items()):
            depths = sorted(
                site.depth
                for site in self.scan_sites
                if site.input_name == name
            )
            lines.append(
                f"input {name}: {interval.render()} scan sites "
                f"at depths {depths}"
            )
        lines.append(
            f"loop-entry degree {self.scan_degree} "
            f"({len(self.scan_sites)} scan sites)"
        )
        lines.append(
            f"output cardinality <= {self.emit_sites}"
            f"*T^{self.emit_degree} rows"
        )
        if self.let_bindings:
            dead = (
                f", dead: {', '.join(self.dead_bindings)}"
                if self.dead_bindings
                else ""
            )
            lines.append(f"{self.let_bindings} let binding(s){dead}")
        return lines


# ---------------------------------------------------------------------------
# Usage / liveness: backward dataflow with multiplicities
# ---------------------------------------------------------------------------

def demanded_occurrences(term: Term, names: Sequence[str]) -> int:
    """Occurrences of ``names`` in the let-expansion of ``term`` — without
    expanding.

    The dataflow equation is ``occ(let x = M in N) = occ(N) +
    uses(x, N) * occ(M)`` with ``uses`` computed under the same
    multiplicity semantics (and dropped entirely when zero, matching dead
    bindings vanishing under expansion).  Memoized and iterative, so the
    count is linear-ish in the term even where the expansion itself is
    exponential.
    """
    targets0 = frozenset(names)
    memo: Dict[Tuple[int, FrozenSet[str]], int] = {}
    stack: List[Tuple[Term, FrozenSet[str]]] = [(term, targets0)]
    while stack:
        node, targets = stack[-1]
        key = (id(node), targets)
        if key in memo:
            stack.pop()
            continue
        if isinstance(node, Var):
            memo[key] = 1 if node.name in targets else 0
            stack.pop()
        elif isinstance(node, (Const, EqConst)):
            memo[key] = 0
            stack.pop()
        elif isinstance(node, Abs):
            inner = targets - {node.var}
            child = (id(node.body), inner)
            if child in memo:
                memo[key] = memo[child]
                stack.pop()
            else:
                stack.append((node.body, inner))
        elif isinstance(node, App):
            left = (id(node.fn), targets)
            right = (id(node.arg), targets)
            if left in memo and right in memo:
                memo[key] = memo[left] + memo[right]
                stack.pop()
            else:
                if right not in memo:
                    stack.append((node.arg, targets))
                if left not in memo:
                    stack.append((node.fn, targets))
        elif isinstance(node, Let):
            uses_key = (id(node.body), frozenset((node.var,)))
            body_key = (id(node.body), targets - {node.var})
            bound_key = (id(node.bound), targets)
            if uses_key in memo and body_key in memo and bound_key in memo:
                uses = memo[uses_key]
                total = memo[body_key]
                if uses:
                    total += uses * memo[bound_key]
                memo[key] = total
                stack.pop()
            else:
                if bound_key not in memo:
                    stack.append((node.bound, targets))
                if body_key not in memo:
                    stack.append((node.body, targets - {node.var}))
                if uses_key not in memo:
                    stack.append((node.body, frozenset((node.var,))))
        else:
            raise TypeError(f"not a term: {node!r}")
    return memo[(id(term), targets0)]


def let_liveness(term: Term) -> Tuple[int, Tuple[str, ...]]:
    """``(total let bindings, names of the dead ones)``.

    A binding is dead when its body never demands it (zero occurrences
    under the multiplicity dataflow); dead bindings are what the
    simplifier eliminates, and each one costs a ``let`` step per
    evaluation for nothing.
    """
    total = 0
    dead: List[str] = []
    stack: List[Term] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Abs):
            stack.append(node.body)
        elif isinstance(node, App):
            stack.append(node.fn)
            stack.append(node.arg)
        elif isinstance(node, Let):
            total += 1
            if demanded_occurrences(node.body, (node.var,)) == 0:
                dead.append(node.var)
            stack.append(node.bound)
            stack.append(node.body)
    return total, tuple(dead)


# ---------------------------------------------------------------------------
# Occurrence counting + cardinality: the normal-form spine walk
# ---------------------------------------------------------------------------

class _WalkAbort(Exception):
    """Raised when the spine walk meets a shape it cannot bound."""


def _mentions_any(term: Term, names: FrozenSet[str]) -> bool:
    stack = [(term, names)]
    while stack:
        node, live = stack.pop()
        if not live:
            continue
        if isinstance(node, Var):
            if node.name in live:
                return True
        elif isinstance(node, Abs):
            stack.append((node.body, live - {node.var}))
        elif isinstance(node, App):
            stack.append((node.fn, live))
            stack.append((node.arg, live))
        elif isinstance(node, Let):
            stack.append((node.bound, live))
            stack.append((node.body, live - {node.var}))
    return False


def _walk(
    node: Term,
    *,
    depth: int,
    guarded: bool,
    inputs: FrozenSet[str],
    cons: Optional[str],
    loop: FrozenSet[str],
    sites: List[ScanSite],
    emits: List[Tuple[int, bool]],
) -> None:
    """Record scan and emission sites of a normal-form body.

    ``depth`` counts enclosing fold loops; ``loop`` is the set of binders
    introduced *inside* the body (loop parameters and accumulators, whose
    runtime values may be list closures — an input relation consumed
    through one of those cannot be bounded structurally and aborts the
    walk).
    """
    head, args = spine(node)
    if isinstance(head, Abs):
        if args:
            raise _WalkAbort("unexpected beta redex in normal form")
        _walk(
            head.body,
            depth=depth,
            guarded=guarded,
            inputs=inputs,
            cons=cons,
            loop=loop | {head.var},
            sites=sites,
            emits=emits,
        )
        return
    if isinstance(head, Let):
        raise _WalkAbort("unexpected let in normal form")
    if isinstance(head, EqConst):
        # Eq a b B_true B_false: the atoms are forced eagerly, the
        # branches are taken one-per-activation (guarded).
        for index, arg in enumerate(args):
            _walk(
                arg,
                depth=depth,
                guarded=guarded or index >= 2,
                inputs=inputs,
                cons=cons,
                loop=loop,
                sites=sites,
                emits=emits,
            )
        return
    if isinstance(head, Const):
        for arg in args:
            _walk(
                arg,
                depth=depth,
                guarded=guarded,
                inputs=inputs,
                cons=cons,
                loop=loop,
                sites=sites,
                emits=emits,
            )
        return
    # head is a Var.
    name = head.name
    if name in inputs and name not in loop:
        # A scan site: the input's list is enumerated once per activation.
        sites.append(ScanSite(input_name=name, depth=depth, guarded=guarded))
        # In copy/result position (no structured loop body) the scan also
        # emits its tuples into the output.
        emits.append((depth + 1, guarded))
        if args:
            _walk(
                args[0],
                depth=depth + 1,
                guarded=guarded,
                inputs=inputs,
                cons=cons,
                loop=loop,
                sites=sites,
                emits=emits,
            )
            for arg in args[1:]:
                _walk(
                    arg,
                    depth=depth,
                    guarded=guarded,
                    inputs=inputs,
                    cons=cons,
                    loop=loop,
                    sites=sites,
                    emits=emits,
                )
        return
    if name in loop:
        # A loop binder in head position: its runtime value may be an
        # accumulated list closure, which would re-iterate anything passed
        # to it — safe only when no input reaches it.
        if args and any(_mentions_any(arg, inputs) for arg in args):
            raise _WalkAbort(
                f"input relation applied under loop binder {name!r}"
            )
        for arg in args:
            _walk(
                arg,
                depth=depth,
                guarded=guarded,
                inputs=inputs,
                cons=cons,
                loop=loop,
                sites=sites,
                emits=emits,
            )
        return
    # Output constructor, output terminal, or a free variable: neutral at
    # readback, so arguments are forced once per activation.
    if cons is not None and name == cons:
        emits.append((depth, guarded))
    for arg in args:
        _walk(
            arg,
            depth=depth,
            guarded=guarded,
            inputs=inputs,
            cons=cons,
            loop=loop,
            sites=sites,
            emits=emits,
        )


def abstract_term_facts(
    term: Term,
    *,
    input_count: Optional[int] = None,
) -> AbstractFacts:
    """Run the abstract domains over one term plan.

    The plan is normalized without data first (fuel-capped; a plan that
    cannot be normalized falls back), its leading ``input_count`` binders
    are the inputs (all of them when ``None``, matching
    :func:`~repro.analysis.cost.term_cost_profile`), and the body is
    walked for scan and emission sites.  The liveness domain runs over
    the *original* term (the normal form has no lets left).
    """
    lets, dead = let_liveness(term)
    facts = AbstractFacts(
        kind="term", let_bindings=lets, dead_bindings=dead
    )

    # Labels for the inputs: the original binder names where available
    # (readable in reports), else the normal form's fresh names.
    original_names, _ = binder_prefix(term)

    try:
        normal, steps = nbe_normalize_counted(
            term, max_depth=NORMALIZE_MAX_DEPTH, fuel=NORMALIZE_FUEL
        )
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        facts.fallback = f"plan does not normalize without data: {exc}"
        return facts
    facts.normalize_steps = steps
    if term_size(normal) > WALK_SIZE_CAP:
        facts.fallback = (
            f"normal form exceeds the walk cap "
            f"({term_size(normal)} > {WALK_SIZE_CAP} nodes)"
        )
        return facts

    names, body = binder_prefix(normal)
    count = len(names) if input_count is None else input_count
    if len(names) < count:
        facts.fallback = (
            f"normal form binds {len(names)} inputs, expected {count}"
        )
        return facts
    input_names = names[:count]
    rest = names[count:]
    cons = rest[0] if rest else None
    labels = {
        name: (
            original_names[index]
            if index < len(original_names)
            else name
        )
        for index, name in enumerate(input_names)
    }

    sites: List[ScanSite] = []
    emits: List[Tuple[int, bool]] = []
    try:
        _walk(
            body,
            depth=0,
            guarded=False,
            inputs=frozenset(input_names),
            cons=cons,
            loop=frozenset(),
            sites=sites,
            emits=emits,
        )
    except _WalkAbort as exc:
        facts.fallback = str(exc)
        return facts
    except RecursionError:
        facts.fallback = "normal form too deep for the spine walk"
        return facts

    facts.scan_sites = tuple(
        ScanSite(
            input_name=labels[site.input_name],
            depth=site.depth,
            guarded=site.guarded,
        )
        for site in sites
    )
    facts.scan_degree = max(
        (site.depth + 1 for site in sites), default=0
    )
    per_input: Dict[str, List[ScanSite]] = {}
    for site in facts.scan_sites:
        per_input.setdefault(site.input_name, []).append(site)
    facts.input_scans = {
        labels[name]: Interval(lo=0, hi=0) for name in input_names
    }
    for name, group in per_input.items():
        unguarded = sum(1 for site in group if not site.guarded)
        facts.input_scans[name] = Interval(lo=unguarded, hi=len(group))
    facts.emit_sites = len(emits)
    facts.emit_degree = max((d for d, _ in emits), default=0)
    return facts


# ---------------------------------------------------------------------------
# Profile tightening
# ---------------------------------------------------------------------------

def tighten_term_profile(
    term: Term,
    *,
    base: CostProfile,
    input_count: Optional[int] = None,
    facts: Optional[AbstractFacts] = None,
) -> Tuple[Optional[CostProfile], AbstractFacts]:
    """Derive a sharper profile for a term plan from its abstract facts.

    The tightened model: a scan site at depth ``d`` performs at most
    ``T^(d+1) <= (N+2)^(d+1)`` loop-body entries, each costing at most
    the plan size in steps; emission/readback is covered by the
    cardinality domain (``emit_degree <= scan_degree``); the plan's own
    data-independent redexes add ``normalize_steps`` once.  Hence

        (s + 1) * DEFAULT_COEFFICIENT * size * (N + 2) ** scan_degree

    plus the normalization overhead folded into the coefficient.  The
    profile is adopted only when it dominates the syntactic one (degree
    strictly smaller, or equal with a smaller constant); otherwise
    ``None`` is returned and the syntactic envelope stands.
    """
    if facts is None:
        facts = abstract_term_facts(term, input_count=input_count)
    if facts.fallback is not None:
        return None, facts
    size = max(base.size, term_size(term), 1)
    degree = max(facts.scan_degree, facts.emit_degree)
    sites = len(facts.scan_sites)
    coefficient = (
        DEFAULT_COEFFICIENT * (sites + 1)
        + facts.normalize_steps // size
        + 1
    )
    tightened = CostProfile(
        kind="term",
        size=size,
        degree=degree,
        stage_arity=0,
        coefficient=coefficient,
    )
    if degree < base.degree:
        return tightened, facts
    if (
        degree == base.degree
        and coefficient * size < base.coefficient * base.size
    ):
        return tightened, facts
    return None, facts


def abstract_fixpoint_facts(query) -> AbstractFacts:
    """The abstract facts of a fixpoint spec (RA level).

    The occurrence domain counts base-relation mentions in the effective
    step; the cardinality domain caps the inflationary crank at
    ``|D|^k`` stages (each stage adds at least one of the ``|D|^k``
    candidate tuples, or the iteration has converged).
    """
    from repro.relalg.ast import Base, nodes

    counts: Dict[str, int] = {name: 0 for name in query.input_names()}
    for node in nodes(query.effective_step()):
        if isinstance(node, Base) and node.name in counts:
            counts[node.name] += 1
    k = query.output_arity
    return AbstractFacts(
        kind="fixpoint",
        input_scans={
            name: Interval(lo=0, hi=count)
            for name, count in counts.items()
        },
        emit_degree=k,
        emit_sites=1,
        stage_interval=Interval(lo=0, hi=None),
    )


def tighten_fixpoint_profile(base: CostProfile) -> CostProfile:
    """Cap the stage multiplier of a fixpoint profile by the domain.

    The syntactic envelope charges ``(N+2)^k`` stages; the evaluator
    (:func:`repro.eval.ptime.run_fixpoint_query`) cranks at most
    ``|D|^k`` stages plus the initial and the convergence-detecting one,
    and ``|D|^k + 2 <= (N+2)^k`` for every database (``|D| <= N``), so
    the swap is a pointwise tightening of a still-sound bound.
    """
    return replace(base, stage_cap="domain")
