"""The per-plan distribution analyzer (partitionable / broadcast / local).

Soundness criterion.  Let ``P`` be a set of input relations to split and
``D = D_0 ∪ ... ∪ D_{k-1}`` the shard databases (``P``-members split,
everything else replicated).  A plan ``Q`` is *``P``-distributive* when

    Q(D) = merge(Q(D_0), ..., Q(D_{k-1}))

with ``merge`` the canonical dedup combiner of
:mod:`repro.shard.partition`.  Definition 3.1 encodes relations as folds
over tuple lists, and folds distribute over concatenation, so the analyzer
only has to check that every ``P``-member is consumed *tuple-locally* —
once, linearly, never joined against another ``P``-member and never under
an order-global or whole-database operator.

Two plan shapes are analyzed:

* **Fixpoint plans** (:class:`~repro.queries.fixpoint.FixpointQuery`) at
  the relational-algebra level of their step expression.  The fixpoint
  variable ``__FIX__`` is always broadcast (each Theorem 5.2 stage is a
  global barrier); unions, selections and projections recurse; a
  product/intersection may touch ``P`` on one side only (the other side is
  replicated — ``∪_i (L_i × S) = L × S`` but ``∪_i (L_i × S_i) ≠ L × S``);
  a difference may touch ``P`` on its left only; ``adom()`` depends on
  every relation of the shard and ``precedes(X)`` is order-global in
  ``X``, so both veto any ``P`` they touch.

* **Term plans** at the level of their *normal form*: the plan is
  NBE-normalized (data-independent, fuel-capped) and the body must fit a
  conservative chain grammar in which every branch terminates at the
  current accumulator, spine heads are limited to the output constructor,
  ``Eq``, and input relations, and no split input is folded *inside*
  another split input's loop (parallel repeat folds concatenate and are
  fine; nested ones are sharded self-joins).  This rejects exactly the
  shapes that break distributivity: plans that drop the accumulator
  (``TLI004``-style first-element folds), re-iterate an input from inside
  its own loop (``distinct_*`` / ``precedes`` / ``order`` operators nest
  their input's folds), or apply relations in non-fold positions.

Classification tries ``P = {all inputs}`` first (``partitionable``), then
falls back to single-relation candidates (``broadcast`` — the executor
splits the largest candidate and replicates the rest), then ``local-only``
with the stable diagnostic code ``TLI018`` (``TLI017`` is the positive
certificate).  Per-shard fuel comes from splitting the Theorem 5.1 cost
certificate over the shard's own :class:`~repro.analysis.cost.DatabaseStats`
— the bound is monotone in the statistics, so each shard budget is at most
the single-shard budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union as TUnion,
)

from repro.analysis.analyzer import fuel_budget
from repro.analysis.cost import CostProfile, DatabaseStats
from repro.analysis.provenance import ProvenanceFacts, read_set_stats
from repro.db.relations import Database
from repro.errors import ReproError
from repro.lam.nbe import nbe_normalize
from repro.lam.terms import (
    Abs,
    Const,
    EqConst,
    Term,
    Var,
    binder_prefix,
    spine,
)
from repro.queries.fixpoint import FIX_NAME, FixpointQuery
from repro.queries.language import QueryArity
from repro.relalg.ast import (
    ADOM_NAME,
    PRECEDES_PREFIX,
    Base,
    Difference,
    Intersection,
    Product,
    Project,
    RAExpr,
    Select,
    Union,
    nodes,
)

#: Distribution modes.
MODE_PARTITIONABLE = "partitionable"
MODE_BROADCAST = "broadcast"
MODE_LOCAL = "local-only"

#: Stable diagnostic codes (registered in repro.analysis.diagnostics).
CODE_DISTRIBUTABLE = "TLI017"
CODE_LOCAL_ONLY = "TLI018"


@dataclass(frozen=True)
class DistributionPlan:
    """The analyzer's verdict for one plan.

    ``partition_names`` is the set to split in ``partitionable`` mode, or
    the *candidates* in ``broadcast`` mode (any single one may be split;
    :meth:`choose_partition` picks the largest against a concrete
    database).  ``broadcast_names`` is everything else.
    """

    mode: str
    kind: str  # "term" | "fixpoint"
    partition_names: Tuple[str, ...]
    broadcast_names: Tuple[str, ...]
    code: str
    reason: str

    @property
    def distributable(self) -> bool:
        return self.mode != MODE_LOCAL

    def choose_partition(self, database: Database) -> Tuple[str, ...]:
        """The relations to actually split for ``database``."""
        if self.mode == MODE_PARTITIONABLE:
            return self.partition_names
        if self.mode == MODE_BROADCAST:
            present = [
                name for name in self.partition_names if name in database
            ]
            if not present:
                raise ReproError(
                    f"no broadcast-mode candidate of {self.partition_names} "
                    f"is present in the database"
                )
            return (max(present, key=lambda name: len(database[name])),)
        raise ReproError("a local-only plan has no partitioning")

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "kind": self.kind,
            "partition_names": list(self.partition_names),
            "broadcast_names": list(self.broadcast_names),
            "code": self.code,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# Relational-algebra level (fixpoint steps)
# ---------------------------------------------------------------------------

def _ra_touches(expr: RAExpr, pset: FrozenSet[str]) -> bool:
    """Does ``expr`` depend on how a ``pset`` member is sharded?"""
    for node in nodes(expr):
        if not isinstance(node, Base):
            continue
        name = node.name
        if name in pset:
            return True
        if name == ADOM_NAME and pset:
            # The active domain is computed over the *shard*, which lacks
            # the other shards' constants of every split relation.
            return True
        if (
            name.startswith(PRECEDES_PREFIX)
            and name[len(PRECEDES_PREFIX):] in pset
        ):
            # The list order of X is a property of the whole list.
            return True
    return False


def _ra_distributive(expr: RAExpr, pset: FrozenSet[str]) -> bool:
    """Is ``expr`` ``pset``-distributive (see the module docstring)?"""
    if not _ra_touches(expr, pset):
        return True  # shard-invariant: every shard computes the same value
    if isinstance(expr, Base):
        # Touching Base: either a pset member itself (∪_i X_i = X, fine)
        # or adom()/precedes(X) over a pset member (order/domain-global).
        return expr.name in pset
    if isinstance(expr, Union):
        return _ra_distributive(expr.left, pset) and _ra_distributive(
            expr.right, pset
        )
    if isinstance(expr, (Project, Select)):
        return _ra_distributive(expr.inner, pset)
    if isinstance(expr, (Product, Intersection)):
        left_touches = _ra_touches(expr.left, pset)
        right_touches = _ra_touches(expr.right, pset)
        if left_touches and right_touches:
            # Both sides would be split: ∪_i (L_i ⋈ R_i) ≠ L ⋈ R.
            return False
        side = expr.left if left_touches else expr.right
        return _ra_distributive(side, pset)
    if isinstance(expr, Difference):
        if _ra_touches(expr.right, pset):
            # ∪_i (L - R_i) over-approximates L - R.
            return False
        return _ra_distributive(expr.left, pset)
    return False


def plan_fixpoint_distribution(query: FixpointQuery) -> DistributionPlan:
    """Classify a fixpoint plan by analyzing its effective step.

    The stage relation (``__FIX__``) is always broadcast; only the input
    relations are candidates for splitting.
    """
    names = tuple(query.input_names())
    step = query.effective_step()
    full = frozenset(names)
    if full and _ra_distributive(step, full):
        return DistributionPlan(
            mode=MODE_PARTITIONABLE,
            kind="fixpoint",
            partition_names=names,
            broadcast_names=(FIX_NAME,),
            code=CODE_DISTRIBUTABLE,
            reason=(
                "every input is consumed tuple-locally by the step; "
                "all inputs split, stage relation broadcast"
            ),
        )
    candidates = tuple(
        name
        for name in names
        if _ra_distributive(step, frozenset((name,)))
    )
    if candidates:
        others = tuple(n for n in names if n not in candidates)
        return DistributionPlan(
            mode=MODE_BROADCAST,
            kind="fixpoint",
            partition_names=candidates,
            broadcast_names=others + (FIX_NAME,),
            code=CODE_DISTRIBUTABLE,
            reason=(
                f"step joins inputs; any one of "
                f"{', '.join(candidates)} may be split with the rest "
                f"replicated"
            ),
        )
    return DistributionPlan(
        mode=MODE_LOCAL,
        kind="fixpoint",
        partition_names=(),
        broadcast_names=names + (FIX_NAME,),
        code=CODE_LOCAL_ONLY,
        reason=(
            "no input is consumed tuple-locally (order-global, "
            "domain-global, or difference-right usage); evaluating "
            "in-process"
        ),
    )


# ---------------------------------------------------------------------------
# Term level (normalized chain grammar)
# ---------------------------------------------------------------------------

@dataclass
class _ChainScan:
    """Occurrence log of one structural scan of a normalized body."""

    ok: bool
    #: One entry per input-relation fold: (name, enclosing fold heads).
    occurrences: List[Tuple[str, FrozenSet[str]]]
    reason: str = ""

    def counts(self) -> dict:
        out: dict = {}
        for name, _ in self.occurrences:
            out[name] = out.get(name, 0) + 1
        return out

    def valid_for(self, pset: FrozenSet[str]) -> bool:
        if not self.ok:
            return False
        for name, enclosing in self.occurrences:
            if name in pset and enclosing & pset:
                # A split relation folded inside a split relation's loop
                # (its own, or another's) is a sharded self-join:
                # ∪_i (R_i ⋈ S_i) ≠ R ⋈ S.  *Parallel* repeat folds are
                # fine — the chain concatenates their contributions, and
                # each fold distributes over its input's shards on its
                # own, so the canonical merge unions them correctly.
                return False
        return True


def _is_atom(node: Term, inputs: FrozenSet[str], shadowed: FrozenSet[str]) -> bool:
    if isinstance(node, Const):
        return True
    if isinstance(node, Var):
        # A relation variable in an atom (tuple-component) position is not
        # a fold; reject so the scan stays conservative.
        return node.name in shadowed or node.name not in inputs
    return False


def _scan_chain(
    node: Term,
    *,
    cons: str,
    terminal: Optional[str],
    inputs: FrozenSet[str],
    enclosing: FrozenSet[str],
    shadowed: FrozenSet[str],
    scan: _ChainScan,
) -> bool:
    if (
        terminal is not None
        and isinstance(node, Var)
        and node.name == terminal
        and terminal not in shadowed
    ):
        return True
    head, args = spine(node)
    if isinstance(head, Var) and head.name == cons and cons not in shadowed:
        # c a1 ... ak rest  (or  c a1 ... ak  in the Remark 3.3 eta
        # variant, where the chain has no terminal).
        if terminal is None:
            return all(_is_atom(a, inputs, shadowed) for a in args)
        if not args:
            return False
        *atoms, rest = args
        if not all(_is_atom(a, inputs, shadowed) for a in atoms):
            return False
        return _scan_chain(
            rest, cons=cons, terminal=terminal, inputs=inputs,
            enclosing=enclosing, shadowed=shadowed, scan=scan,
        )
    if isinstance(head, EqConst):
        # Eq a b B_true B_false — both branches must chain to the same
        # terminal (the equality is tuple-local).
        if len(args) != 4:
            return False
        if not all(_is_atom(a, inputs, shadowed) for a in args[:2]):
            return False
        return all(
            _scan_chain(
                branch, cons=cons, terminal=terminal, inputs=inputs,
                enclosing=enclosing, shadowed=shadowed, scan=scan,
            )
            for branch in args[2:]
        )
    if (
        isinstance(head, Var)
        and head.name in inputs
        and head.name not in shadowed
    ):
        # R F rest — a fold over input R.
        if len(args) != 2:
            return False
        loop, rest = args
        scan.occurrences.append((head.name, enclosing))
        if not _scan_chain(
            rest, cons=cons, terminal=terminal, inputs=inputs,
            enclosing=enclosing, shadowed=shadowed, scan=scan,
        ):
            return False
        if isinstance(loop, Var) and loop.name == cons and cons not in shadowed:
            return True  # R c rest: the identity copy loop
        if not isinstance(loop, Abs):
            return False
        names, body = binder_prefix(loop)
        if not names:
            return False
        return _scan_chain(
            body,
            cons=cons,
            terminal=names[-1],
            inputs=inputs,
            enclosing=enclosing | {head.name},
            shadowed=(shadowed | set(names)) - {names[-1]},
            scan=scan,
        )
    return False


#: Depth cap for the data-independent plan normalization.
PLAN_NORMALIZE_MAX_DEPTH = 200_000


def _scan_term(
    term: Term, signature: QueryArity
) -> TUnion[Tuple[_ChainScan, Tuple[str, ...]], str]:
    """Normalize a term plan and scan its body; returns the scan plus the
    input binder names, or a reason string when the plan cannot be
    analyzed."""
    try:
        normal = nbe_normalize(term, max_depth=PLAN_NORMALIZE_MAX_DEPTH)
    except Exception as exc:  # noqa: BLE001 - any failure means local-only
        return f"plan does not normalize without data: {exc}"
    names, body = binder_prefix(normal)
    input_count = len(signature.inputs)
    if len(names) < input_count:
        return (
            f"normal form binds {len(names)} inputs, signature declares "
            f"{input_count}"
        )
    input_names = names[:input_count]
    rest = names[input_count:]
    if len(set(names)) != len(names):
        return "normal form reuses a binder name across the prefix"
    inputs = frozenset(input_names)
    scan = _ChainScan(ok=False, occurrences=[])
    if len(rest) == 2:
        cons, terminal = rest
    elif len(rest) == 1:
        cons, terminal = rest[0], None  # Remark 3.3 eta variant
    else:
        return (
            f"normal form carries {len(rest)} output binders "
            f"(expected the λc. λn. shape)"
        )
    scan.ok = _scan_chain(
        body,
        cons=cons,
        terminal=terminal,
        inputs=inputs,
        enclosing=frozenset(),
        shadowed=frozenset(),
        scan=scan,
    )
    if not scan.ok:
        scan.reason = (
            "normal form is not a tuple-local fold chain "
            "(accumulator dropped, input re-iterated, or non-fold use)"
        )
    return scan, tuple(input_names)


def plan_term_distribution(
    term: Term,
    signature: Optional[QueryArity],
    *,
    input_names: Optional[Sequence[str]] = None,
) -> DistributionPlan:
    """Classify a term plan via the normalized chain grammar.

    ``signature`` fixes how many leading binders are inputs; without one
    the split cannot be located and the plan is ``local-only``.
    ``input_names`` optionally maps binder positions to catalog relation
    names (defaults to the normal form's own binder names).
    """
    if signature is None:
        return DistributionPlan(
            mode=MODE_LOCAL,
            kind="term",
            partition_names=(),
            broadcast_names=(),
            code=CODE_LOCAL_ONLY,
            reason="no arity signature: cannot identify the input binders",
        )
    scanned = _scan_term(term, signature)
    if isinstance(scanned, str):
        return DistributionPlan(
            mode=MODE_LOCAL,
            kind="term",
            partition_names=(),
            broadcast_names=(),
            code=CODE_LOCAL_ONLY,
            reason=scanned,
        )
    scan, binders = scanned
    public = (
        tuple(input_names)
        if input_names is not None
        else binders
    )
    if len(public) != len(binders):
        raise ReproError(
            f"{len(binders)} input binders but {len(public)} input names"
        )
    rename = dict(zip(binders, public))

    if not scan.ok:
        return DistributionPlan(
            mode=MODE_LOCAL,
            kind="term",
            partition_names=(),
            broadcast_names=public,
            code=CODE_LOCAL_ONLY,
            reason=scan.reason,
        )
    full = frozenset(binders)
    if full and scan.valid_for(full):
        return DistributionPlan(
            mode=MODE_PARTITIONABLE,
            kind="term",
            partition_names=public,
            broadcast_names=(),
            code=CODE_DISTRIBUTABLE,
            reason=(
                "normal form folds every input tuple-locally; "
                "all inputs split"
            ),
        )
    candidates = tuple(
        rename[name]
        for name in binders
        if scan.valid_for(frozenset((name,)))
    )
    if candidates:
        others = tuple(n for n in public if n not in candidates)
        return DistributionPlan(
            mode=MODE_BROADCAST,
            kind="term",
            partition_names=candidates,
            broadcast_names=others,
            code=CODE_DISTRIBUTABLE,
            reason=(
                f"inputs are joined; any one of {', '.join(candidates)} "
                f"may be split with the rest replicated"
            ),
        )
    return DistributionPlan(
        mode=MODE_LOCAL,
        kind="term",
        partition_names=(),
        broadcast_names=public,
        code=CODE_LOCAL_ONLY,
        reason=(
            "every input's folds are nested inside other folds "
            "(sharded self-joins); evaluating in-process"
        ),
    )


def refine_distribution(
    plan: DistributionPlan,
    scanned: AbstractSet[str],
) -> Tuple[DistributionPlan, Tuple[str, ...]]:
    """Drop unscanned relations from a plan's partition candidates.

    The read-set certificate (TLI023) proves an unscanned input cannot
    influence the result, so splitting it buys no parallelism — it only
    adds partitioning work and skews the shard fuel split.  The refined
    plan broadcasts those relations instead; dropping a subset of a valid
    split set is always sound (both the chain-grammar and the RA
    distributivity predicates are monotone under shrinking the split
    set).  Returns ``(plan, dropped_names)``; the plan is unchanged when
    nothing was dropped or dropping would empty the candidate set.
    """
    if not plan.distributable:
        return plan, ()
    dropped = tuple(
        name for name in plan.partition_names if name not in scanned
    )
    if not dropped:
        return plan, ()
    kept = tuple(
        name for name in plan.partition_names if name in scanned
    )
    if not kept:
        # Every candidate is unscanned: the result is data-independent of
        # all of them; keep the original plan rather than invent an empty
        # split.
        return plan, ()
    refined = replace(
        plan,
        partition_names=kept,
        broadcast_names=plan.broadcast_names
        + tuple(n for n in dropped if n not in plan.broadcast_names),
        reason=plan.reason
        + f"; read-set refinement broadcasts unscanned {', '.join(dropped)}",
    )
    return refined, dropped


def plan_distribution(
    plan: TUnion[Term, FixpointQuery],
    *,
    signature: Optional[QueryArity] = None,
    input_names: Optional[Sequence[str]] = None,
) -> DistributionPlan:
    """Classify either plan shape (the service runtime's entry point)."""
    if isinstance(plan, FixpointQuery):
        return plan_fixpoint_distribution(plan)
    if isinstance(plan, Term):
        return plan_term_distribution(
            plan, signature, input_names=input_names
        )
    raise ReproError(
        f"cannot plan distribution for {type(plan).__name__}"
    )


# ---------------------------------------------------------------------------
# Fuel splitting (Theorem 5.1 over shard statistics)
# ---------------------------------------------------------------------------

def shard_fuel(
    cost: Optional[CostProfile],
    shard_database: Database,
    stats: DatabaseStats,
    *,
    default: int,
    provenance: Optional[ProvenanceFacts] = None,
) -> int:
    """The fuel budget for one shard task.

    The Theorem 5.1 cost certificate is a polynomial in the database
    statistics; instantiated at the *shard's* statistics (``stats``) it
    bounds the shard evaluation, and since the polynomial is monotone the
    per-shard budget never exceeds the single-shard budget.  With an
    exact read-set (``provenance``, TLI023) the statistics are restricted
    to the relations the plan actually scans — unscanned relations
    inflate the budget without ever being folded.
    """
    return fuel_budget(
        cost,
        read_set_stats(provenance, shard_database, stats),
        default=default,
    )
