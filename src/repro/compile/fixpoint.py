"""The one Theorem 5.2 stage loop, shared by every staged engine.

A TLI=1 query is evaluated stage by stage to its fixpoint (Theorem 5.2).
:func:`run_fixpoint_query_compiled` is that loop.  It takes the stage as
an argument and owns everything else: the TLI024 input check, the
inputs-only domain and the ``|D|^k`` crank, set-equality convergence,
the stage accounting and the final ``D^k`` sweep.  Every staged run goes
through it:

* in process, with the stage of the engine's row in
  :data:`repro.service.engines.ENGINE_TABLE`: :func:`set_stage` for
  ``"ra"``, which evaluates the step on Python sets via
  :func:`repro.relalg.engine.evaluate_ra`, and the NBE-materialized stage
  for ``"fixpoint"``;
* on shards, with the coordinator's fan-out stage
  (:func:`repro.shard.executor.execute_sharded_fixpoint`), whose shard
  tasks run the same row's stage.

A semi-naive rewrite therefore changes this one loop: it would hand the
stage the frontier ``next - current`` next to the stage.

Soundness relative to the reduction semantics: the whole-stage evaluator
:func:`repro.eval.ptime.run_fixpoint_query` (the oracle the tests
compare against) reencodes every stage through ``FuncToList'``, which
enumerates ``D^k`` and keeps exactly the accepted tuples — i.e. the
reencoding is the *identity on tuple sets* (stage outputs only ever
contain constants of ``D``).  Convergence there compares consecutive
reencoded stages, which is set equality; so this loop converges at the
same stage with the same relation as a set, and under the inflationary
wrapper the chain is monotone, letting the loop stop as soon as a stage
adds no new tuples.

The final relation is put in ``FuncToList'``'s order by one ``D^k``
sweep over the domain list the lambda-level converter enumerates
(:func:`funclist_domain`), so every engine returns the same tuple order.
"""

from __future__ import annotations

from itertools import product as cartesian
from typing import Callable, List, Optional, Set, Tuple

from repro.db.decode import DecodedRelation
from repro.db.relations import Database, Relation
from repro.eval.ptime import FixpointRun
from repro.queries.fixpoint import FIX_NAME, FixpointQuery
from repro.relalg.ast import ADOM_NAME, PRECEDES_PREFIX, Base, RAExpr, nodes
from repro.relalg.engine import evaluate_ra

#: Receives step breakdown dicts (the :mod:`repro.obs.profiler` contract).
Observer = Callable[[dict], None]

#: One fixpoint stage: ``(step, inputs, stage, max_depth, observer)`` to
#: the next stage and the work it took.  ``step`` runs over ``inputs``
#: with ``stage`` bound to ``__FIX__``; ``max_depth`` budgets a stage
#: that reduces terms; ``observer``, when given, receives the stage's
#: step breakdowns.
Stage = Callable[
    [RAExpr, Database, Relation, int, Optional[Observer]],
    Tuple[Relation, int],
]

DEFAULT_MAX_DEPTH = 600_000


def step_read_set(query: FixpointQuery) -> Tuple[str, ...]:
    """Input relations the step reads (``adom()`` sweeps all of them)."""
    names: Set[str] = set()
    for node in nodes(query.effective_step()):
        if not isinstance(node, Base):
            continue
        if node.name == ADOM_NAME:
            return query.input_names()
        if node.name.startswith(PRECEDES_PREFIX):
            names.add(node.name[len(PRECEDES_PREFIX):])
        elif node.name != FIX_NAME:
            names.add(node.name)
    return tuple(n for n in query.input_names() if n in names)


def funclist_domain(inputs: Database) -> List[str]:
    """The active-domain list ``FuncToList'`` enumerates.

    :func:`repro.queries.relalg_compile.active_domain_expr_term` unions
    the distinct projections of every input column (inputs in schema
    order, each projection in list order), and each union puts the
    constants the list so far lacks in front of it.
    """
    seen: Set[str] = set()
    pieces: List[List[str]] = []
    for _, relation in inputs:
        for column in range(relation.arity):
            fresh = []
            for row in relation.tuples:
                if row[column] not in seen:
                    seen.add(row[column])
                    fresh.append(row[column])
            pieces.append(fresh)
    return [value for piece in reversed(pieces) for value in piece]


def set_stage(
    step: RAExpr,
    inputs: Database,
    stage: Relation,
    max_depth: int = DEFAULT_MAX_DEPTH,
    observer: Optional[Observer] = None,
) -> Tuple[Relation, int]:
    """One set stage: ``step`` over ``inputs`` with ``stage`` bound to
    ``__FIX__``, costing the tuples it produced plus the ones it read
    back.  It reduces no term, so ``max_depth`` is unused."""
    next_relation = evaluate_ra(step, inputs.with_relation(FIX_NAME, stage))
    ops = len(next_relation) + len(stage)
    if observer is not None:
        observer({"steps": ops, "ra_ops": ops})
    return next_relation, ops


def run_fixpoint_query_compiled(
    query: FixpointQuery,
    database: Database,
    *,
    stage: Stage = set_stage,
    max_depth: int = DEFAULT_MAX_DEPTH,
    observer: Optional[Observer] = None,
) -> FixpointRun:
    """Iterate ``stage`` (default :func:`set_stage`) to the fixpoint.

    Keeps :func:`repro.eval.ptime.run_fixpoint_query`'s contract — same
    TLI024 schema validation, same ``|D|^k`` crank cap, same ``stages``
    / ``stage_sizes`` / ``converged_at`` accounting, same tuple order —
    but the reported step count is the stages' own work (for
    :func:`set_stage`, tuples produced and read back per stage) plus the
    ``|D|^k`` sweep, which the Theorem 5.2 certificates bound a
    fortiori.  ``observer`` receives each stage's breakdowns and then
    the sweep, so its step total equals the reported one.
    """
    inputs_db = query.input_database(database)
    step = query.effective_step()
    k = query.output_arity
    domain = funclist_domain(inputs_db)
    crank_length = len(domain) ** k

    ops = 0
    current: frozenset = frozenset()
    fix = Relation.empty(k)
    stage_sizes: List[int] = [0]
    converged_at: Optional[int] = None
    stages_run = 0
    for index in range(crank_length):
        next_relation, stage_ops = stage(
            step, inputs_db, fix, max_depth, observer
        )
        next_set = next_relation.as_set()
        ops += stage_ops
        stages_run += 1
        stage_sizes.append(len(next_set))
        if next_set == current:
            converged_at = index + 1
            break
        current, fix = next_set, next_relation
    if observer is not None:
        observer({"steps": crank_length})

    relation = Relation(
        k, tuple(row for row in cartesian(domain, repeat=k) if row in current)
    )
    return FixpointRun(
        relation=relation,
        decoded=DecodedRelation.of(relation),
        normal_form=None,
        stages=stages_run,
        stage_sizes=stage_sizes,
        converged_at=converged_at,
        nbe_steps=ops + crank_length,
    )
