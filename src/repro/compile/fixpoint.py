"""Set-at-a-time fixpoint iteration — the compiled TLI=1 evaluator.

:func:`repro.eval.ptime.run_fixpoint_query` already avoids the
exponential redex towers by materializing each stage, but it still runs
every stage through NBE: one normalization per RA operator per stage,
plus a ``ListToFunc'``/``FuncToList'`` reencoding sweep over ``D^k``.
For a certified fixpoint query none of that lambda machinery is needed:
the step is an :class:`~repro.relalg.ast.RAExpr`, so each stage can be
evaluated directly on Python sets via :func:`repro.relalg.engine
.evaluate_ra` and compared by set equality.

Soundness relative to the reduction semantics: the NBE evaluator
reencodes every stage through ``FuncToList'``, which enumerates ``D^k``
and keeps exactly the accepted tuples — i.e. the reencoding is the
*identity on tuple sets* (stage outputs only ever contain constants of
``D``).  Convergence there compares consecutive reencoded stages, which
is set equality; so the set-based loop converges at the same stage with
the same relation as a set, and under the inflationary wrapper the
chain is monotone, letting the loop stop as soon as a stage adds no new
tuples (the delta is tracked per stage — the hook where a semi-naive
step rewrite slots in).  The final relation is put in a deterministic
canonical order by one ``D^k`` sweep in active-domain order, mirroring
the enumeration the lambda-level ``FuncToList'`` performs.
"""

from __future__ import annotations

from itertools import product as cartesian
from typing import List, Optional, Set, Tuple

from repro.db.decode import DecodedRelation
from repro.db.relations import Database, Relation
from repro.errors import SchemaError
from repro.eval.ptime import FixpointRun
from repro.queries.fixpoint import FIX_NAME, FixpointQuery
from repro.relalg.ast import ADOM_NAME, PRECEDES_PREFIX, Base, RAExpr
from repro.relalg.engine import evaluate_ra


def step_read_set(query: FixpointQuery) -> Tuple[str, ...]:
    """Input relations the step reads (``adom()`` sweeps all of them)."""
    names: Set[str] = set()
    sweeps_all = False

    def walk(expr: RAExpr) -> None:
        nonlocal sweeps_all
        if isinstance(expr, Base):
            if expr.name == ADOM_NAME:
                sweeps_all = True
            elif expr.name.startswith(PRECEDES_PREFIX):
                names.add(expr.name[len(PRECEDES_PREFIX):])
            elif expr.name != FIX_NAME:
                names.add(expr.name)
            return
        for attr in ("left", "right", "inner"):
            child = getattr(expr, attr, None)
            if isinstance(child, RAExpr):
                walk(child)

    walk(query.effective_step())
    if sweeps_all:
        return query.input_names()
    return tuple(n for n in query.input_names() if n in names)


def run_fixpoint_query_compiled(
    query: FixpointQuery,
    database: Database,
    *,
    stop_on_convergence: bool = True,
    read_trace: Optional[Set[str]] = None,
) -> FixpointRun:
    """Iterate the fixpoint step set-at-a-time.

    Mirrors :func:`repro.eval.ptime.run_fixpoint_query`'s contract —
    same TLI024 schema validation, same ``|D|^k`` crank cap, same
    ``stages`` / ``stage_sizes`` / ``converged_at`` accounting — but the
    reported step count is the executor's *operation* count (tuples
    scanned and produced per stage), which the Theorem 5.2 certificates
    bound a fortiori.
    """
    schema = query.schema()
    names = list(query.input_names())
    k = query.output_arity

    problems = []
    for name in names:
        if name not in database:
            problems.append(f"input relation {name!r} is missing")
        elif database[name].arity != schema[name]:
            problems.append(
                f"input {name!r} expects arity {schema[name]}, database "
                f"has arity {database[name].arity}"
            )
    if problems:
        raise SchemaError(
            "[TLI024] fixpoint query does not fit the database schema: "
            + "; ".join(problems)
        )

    inputs_db = Database(tuple((name, database[name]) for name in names))
    if read_trace is not None:
        read_trace.update(step_read_set(query))

    domain = inputs_db.active_domain()
    crank_length = len(domain) ** k
    step_expr = query.effective_step()

    ops = 0
    current: Set[Tuple[str, ...]] = set()
    stage_relation = Relation.empty(k)
    stage_sizes: List[int] = [0]
    converged_at: Optional[int] = None
    stages_run = 0
    for index in range(crank_length):
        step_db = inputs_db.with_relation(FIX_NAME, stage_relation)
        next_relation = evaluate_ra(step_expr, step_db)
        next_set = next_relation.as_set()
        ops += len(next_relation) + len(stage_relation)
        stages_run += 1
        stage_sizes.append(len(next_set))
        # ``next_set - current`` is the semi-naive frontier a rewritten
        # step would join against next round; under the inflationary
        # wrapper it is empty exactly at convergence.
        converged = next_set == current
        current = next_set
        stage_relation = next_relation
        if converged:
            converged_at = index + 1
            if stop_on_convergence:
                break

    # Canonical order: the D^k enumeration FuncToList' performs.
    canonical = tuple(
        row for row in cartesian(domain, repeat=k) if row in current
    )
    ops += crank_length
    stage_relation = Relation(k, canonical)

    return FixpointRun(
        relation=stage_relation,
        decoded=DecodedRelation.of(stage_relation),
        normal_form=None,
        stages=stages_run,
        stage_sizes=stage_sizes,
        converged_at=converged_at,
        nbe_steps=ops,
    )
