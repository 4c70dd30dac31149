"""The service catalog: named databases and named query plans.

Registration is where the one-time work happens, so requests don't repeat
it:

* **Databases** get a content digest, size statistics and a
  per-relation version vector; :meth:`Catalog.update_database` and
  :meth:`Catalog.apply` bump the versions of exactly the relations that
  changed (the cache key components).  The catalog builds no Church
  encodings: the reduction engines encode a relation on first use
  (:mod:`repro.service.engines`, memoized per relation), and the ``"ra"``
  engine never needs one.
* **Query terms** are type-checked and order-checked once (Lemma 3.9 via
  :func:`repro.queries.language.recognize_tli` when an arity signature is
  supplied, plain principal-type reconstruction otherwise), hash-consed,
  and digested.  Registration fails fast on ill-typed or wrong-order
  terms — a request can never hit an unchecked plan.
* **Engine auto-selection**: a checked term plan is compiled once by
  :mod:`repro.compile`; when it lowers cleanly to relational algebra the
  entry defaults to the set-backed ``"ra"`` engine (TLI028), otherwise to
  ``"nbe"`` with a TLI029 diagnostic naming the fallback reason.  A
  :class:`repro.queries.fixpoint.FixpointQuery` spec is a TLI=1 fixpoint
  tower and runs on the Theorem 5.2 PTIME stage evaluator
  (``"fixpoint"``) — naive normalization of those towers is exponential
  (Section 5), so the spec form is the one to register; ``engine="ra"``
  opts the spec into the set-based fixpoint runner.  An explicit
  ``engine=`` always overrides the choice, and is checked against the
  engine table (:func:`repro.service.engines.runs_staged`): a term plan
  cannot run on ``"fixpoint"``.

**Bindings.**  Everything a request needs that depends only on one
(plan, database version) pair is computed by :meth:`Catalog.bind`, once:
whether the plan runs stage by stage or as a whole term on the engine
(or is rejected), the TLI024 schema-contract check, the scanned
read-set, the cache key's version component, the admission price (the
certificate at the read-set's statistics), the evaluation fuel and
static bound (the certificate at the full statistics), the tightening
ratio, and the static half of EXPLAIN.  The HTTP edge and the runtime
both resolve a request through it.  Bindings are memoized on the
immutable :class:`DatabaseEntry`, so one dies with its database version;
inline plans and inline databases are bound per request and never
memoized.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.analyzer import (
    analyze_fixpoint,
    analyze_term,
    fuel_budget,
)
from repro.analysis.cost import CostProfile, DatabaseStats
from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.provenance import (
    ProvenanceFacts,
    check_schema_contract,
    database_schema,
    read_set_stats,
    scanned_relation_names,
    version_subvector,
)
from repro.compile import (
    CompileDecision,
    compile_decision,
    decision_for_fixpoint,
)
from repro.db.relations import Database, Relation
from repro.errors import EvaluationError, SchemaError
from repro.lam.terms import Term, digest, intern_term
from repro.queries.fixpoint import FixpointQuery, build_fixpoint_query
from repro.queries.language import QueryArity, recognize_tli
from repro.service.cache import VersionKey
from repro.service.engines import (
    FIXPOINT_ENGINE,
    encoded_inputs,
    runs_staged,
)

QuerySpec = Union[Term, FixpointQuery]


def database_digest(database: Database) -> str:
    """A content digest of a list-represented database (names, arities, and
    tuple lists in list order — Definition 3.4 equality).

    Every variable-length field (relation name, tuple component) is
    length-prefixed, so the serialization is injective: constants that
    happen to contain separator bytes cannot shift a boundary and collide
    with a differently-split database.  The arity and row count are framed
    in too, making each relation's byte region self-delimiting.
    """
    hasher = hashlib.sha256()
    for name, relation in database:
        encoded_name = name.encode()
        hasher.update(b"R%d:%s;%d;%d;" % (
            len(encoded_name),
            encoded_name,
            relation.arity,
            len(relation.tuples),
        ))
        for row in relation.tuples:
            for value in row:
                encoded = value.encode()
                hasher.update(b"%d:%s," % (len(encoded), encoded))
            hasher.update(b".")
    return hasher.hexdigest()


@dataclass(frozen=True)
class DatabaseEntry:
    """A registered database: the value plus its registration-time facts."""

    name: str
    database: Database
    version: int
    digest: str
    #: Size statistics the static cost polynomials range over; computed at
    #: registration so per-request fuel derivation is O(1).
    stats: DatabaseStats
    #: Per-relation version vector, ``((relation_name, version), ...)`` in
    #: schema order.  An update bumps only the relations it touched, so a
    #: cache key built from a plan's read-set sub-vector survives updates
    #: to relations the plan never scans.
    versions: Tuple[Tuple[str, int], ...] = ()
    #: :meth:`Catalog.bind`'s memo, ``(plan name, engine) -> Binding``.
    bindings: Dict[Tuple[str, str], "Binding"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def schema(self) -> Dict[str, int]:
        return {name: rel.arity for name, rel in self.database}

    @cached_property
    def encoded(self) -> Tuple[Term, ...]:
        """The Definition 3.1 encodings, in schema order, built on first
        read (each relation's term is shared with every other entry that
        holds the same relation)."""
        return encoded_inputs(self.database)

    def relation_version(self, name: str) -> int:
        for candidate, version in self.versions:
            if candidate == name:
                return version
        return self.version

    def summary(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "digest": self.digest[:12],
            "relations": {
                name: len(rel) for name, rel in self.database
            },
            "relation_versions": dict(self.versions),
            "active_domain": len(self.database.active_domain()),
        }


@dataclass(frozen=True)
class QueryEntry:
    """A registered query plan.

    ``kind`` is ``"term"`` or ``"fixpoint"``; ``term`` is the (interned)
    query term for term plans and the compiled Theorem 4.2 tower for
    fixpoint plans (kept for digesting and reference cross-checks; an
    inline fixpoint spec has none); ``order`` is the derivation order
    found at registration when a signature was checked (``i + 3`` for
    TLI=i, Definition 3.7); ``report`` is the static analyzer's full
    report (absent only with ``check=False`` and for inline plans), whose
    cost profile seeds per-request fuel budgets.
    """

    name: str
    kind: str
    term: Optional[Term]
    engine: str
    digest: str
    fixpoint: Optional[FixpointQuery] = None
    signature: Optional[QueryArity] = None
    order: Optional[int] = None
    report: Optional[AnalysisReport] = None
    #: The simplifier's output when it rewrote the plan (the runtime
    #: evaluates this; ``term`` and ``digest`` stay on the original for
    #: cache continuity and reference cross-checks).
    simplified: Optional[Term] = None
    #: The compiler's decision record (TLI028/TLI029): whether the plan
    #: lowers to relational algebra, the operator chain when it does, and
    #: the fallback-taxonomy reason when it doesn't.
    compiled: Optional[CompileDecision] = None

    @property
    def output_arity(self) -> Optional[int]:
        if self.fixpoint is not None:
            return self.fixpoint.output_arity
        if self.signature is not None:
            return self.signature.output
        return None

    @property
    def cost(self) -> Optional[CostProfile]:
        return self.report.cost if self.report is not None else None

    @property
    def effective_cost(self) -> Optional[CostProfile]:
        """The absint-tightened profile when adopted, else the syntactic
        one — what fuel budgets and shard splits should use."""
        if self.report is None:
            return None
        return self.report.tightened_cost or self.report.cost

    @property
    def plan_term(self) -> Optional[Term]:
        """The term the engines should evaluate (simplified when the
        simplifier changed the plan)."""
        return self.simplified if self.simplified is not None else self.term

    @property
    def provenance(self) -> Optional[ProvenanceFacts]:
        """The read-set / schema-contract certificate (TLI023)."""
        return self.report.provenance if self.report is not None else None

    def summary(self) -> dict:
        report = self.report
        return {
            "name": self.name,
            "kind": self.kind,
            "engine": self.engine,
            "digest": self.digest[:12],
            "order": self.order,
            "fragment": report.fragment if report else None,
            "signature": str(self.signature) if self.signature else None,
            "output_arity": self.output_arity,
            "cost": (
                report.cost.describe()
                if report and report.cost is not None
                else None
            ),
            "tightened_cost": (
                report.tightened_cost.describe()
                if report and report.tightened_cost is not None
                else None
            ),
            "simplified": self.simplified is not None,
            "compile": (
                self.compiled.as_dict() if self.compiled is not None else None
            ),
            "reads": (
                self.provenance.describe()
                if self.provenance is not None
                else None
            ),
            "warnings": (
                [d.format() for d in report.warnings()] if report else []
            ),
        }


@dataclass(frozen=True)
class Binding:
    """One plan bound to one database version (:meth:`Catalog.bind`).

    Every fact here depends only on the (plan entry, database entry)
    pair and ``engine``, and is computed at most once: ``staged``,
    ``contract_error`` and ``version_key`` when the binding is made (a
    pair the engine cannot run is rejected then), the rest on first
    read.  The admission ``price`` and the evaluation ``fuel``
    instantiate the same certificate at different statistics on
    purpose: admission charges what the plan reads (TLI023), while an
    engine runs under the bound for the whole database it is given.
    """

    query: QueryEntry
    database: DatabaseEntry
    engine: str
    #: Whether the plan's fixpoint spec runs stage by stage on the
    #: engine's stage, rather than the plan's term as a whole term.
    staged: bool
    #: The TLI024 finding when the database cannot satisfy the plan's
    #: read contract (a request for the pair is rejected), else ``None``.
    contract_error: Optional[str]
    #: The cache key's version component: the read-set's sub-vector of
    #: the per-relation version vector, or the wildcard vector at the
    #: global version when the plan has no exact read-set.
    version_key: VersionKey

    @classmethod
    def of(
        cls, query: QueryEntry, database: DatabaseEntry, engine: str
    ) -> "Binding":
        staged = runs_staged(
            engine,
            query.name,
            term=query.plan_term is not None,
            spec=query.fixpoint is not None,
        )
        provenance = query.provenance
        version_key = version_subvector(
            provenance, database.database, database.versions,
            database.version,
        )
        if provenance is None:
            return cls(query, database, engine, staged, None, version_key)
        mismatches, _ = check_schema_contract(
            provenance, database_schema(database.database)
        )
        error = None
        if mismatches:
            error = (
                f"[TLI024] query {query.name!r} does not fit database "
                f"{database.name!r}: " + "; ".join(mismatches)
            )
        return cls(query, database, engine, staged, error, version_key)

    @cached_property
    def scanned(self) -> Optional[Tuple[str, ...]]:
        """The database relations the plan scans, or ``None`` when the
        read-set cannot be trusted."""
        return scanned_relation_names(
            self.query.provenance, self.database.database
        )

    @cached_property
    def price(self) -> Optional[int]:
        """The admission price: the certificate at the read-set's
        statistics (``None`` for an uncertified plan)."""
        entry = self.database
        stats = read_set_stats(
            self.query.provenance, entry.database, entry.stats
        )
        return fuel_budget(self.query.effective_cost, stats, default=None)

    @cached_property
    def fuel(self) -> Optional[int]:
        """The evaluation fuel: the certificate at the full statistics
        (``None`` for an uncertified plan)."""
        return fuel_budget(
            self.query.effective_cost, self.database.stats, default=None
        )

    @cached_property
    def static_bound(self) -> Optional[int]:
        cost = self.query.effective_cost
        return cost.bound(self.database.stats) if cost is not None else None

    @cached_property
    def base_bound(self) -> Optional[int]:
        """The syntactic certificate's bound, when absint tightened it."""
        query = self.query
        if query.cost is None or query.cost == query.effective_cost:
            return None
        return query.cost.bound(self.database.stats)

    @cached_property
    def tightening(self) -> Optional[float]:
        """How much sharper the tightened bound is (tightened/syntactic,
        in (0, 1]), or ``None`` when the plan was not tightened."""
        bound, base = self.static_bound, self.base_bound
        if bound is None or base is None or base <= 0:
            return None
        return bound / base

    @cached_property
    def explain_static(self) -> Dict[str, object]:
        """EXPLAIN's static section as far as this pair fixes it
        (callers copy it before adding per-request parts)."""
        query = self.query
        cost, base = query.effective_cost, query.cost
        static: Dict[str, object] = {
            "query": query.name,
            "digest": query.digest[:12],
            "kind": query.kind,
            "engine": self.engine,
            "order": query.order,
            "signature": (
                str(query.signature) if query.signature is not None else None
            ),
            "cost": base.describe() if base is not None else None,
            "tightened_cost": (
                cost.describe()
                if cost is not None and base is not None and cost != base
                else None
            ),
            "read_set": (
                query.provenance.describe()
                if query.provenance is not None
                else None
            ),
            "compile": (
                query.compiled.as_dict()
                if query.compiled is not None
                else None
            ),
        }
        if self.static_bound is not None:
            static["static_bound"] = self.static_bound
            if self.base_bound is not None:
                static["base_bound"] = self.base_bound
                if self.tightening is not None:
                    static["tightening_ratio"] = round(self.tightening, 6)
        return static


class Catalog:
    """Thread-safe registry of named databases and query plans."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._databases: Dict[str, DatabaseEntry] = {}
        self._queries: Dict[str, QueryEntry] = {}
        #: Optional hook invoked with each registration's
        #: :class:`~repro.compile.CompileDecision` — the service runtime
        #: attaches its metrics recorder here (the catalog itself stays
        #: metrics-free).
        self.compile_observer: Optional[
            Callable[[CompileDecision], None]
        ] = None

    # -- databases -----------------------------------------------------------

    def register_database(
        self, name: str, database: Database
    ) -> DatabaseEntry:
        """Register (or replace) ``name``.

        Returns the new entry; replacing bumps the global version so
        cached results for the old contents can never be served.  The
        per-relation version vector is diffed against the previous
        contents: a relation that is structurally unchanged keeps its
        version, so read-set-keyed cache entries that never scan the
        touched relations stay valid.
        """
        with self._lock:
            previous = self._databases.get(name)
            version = previous.version + 1 if previous else 1
            old_relations = dict(previous.database) if previous else {}
            old_versions = dict(previous.versions) if previous else {}
            versions = tuple(
                (
                    rel_name,
                    old_versions.get(rel_name, version)
                    if old_relations.get(rel_name) == relation
                    else version,
                )
                for rel_name, relation in database
            )
            entry = DatabaseEntry(
                name=name,
                database=database,
                version=version,
                digest=database_digest(database),
                stats=DatabaseStats.of(database),
                versions=versions,
            )
            self._databases[name] = entry
            if previous is not None:
                # Its bindings point back at it: dropping them frees the
                # replaced version as soon as no request holds it.
                previous.bindings.clear()
            return entry

    def update_database(self, name: str, database: Database) -> DatabaseEntry:
        """Replace the contents of a registered database (version bump)."""
        with self._lock:
            if name not in self._databases:
                raise SchemaError(f"database {name!r} is not registered")
            return self.register_database(name, database)

    def apply(
        self, name: str, updates: Mapping[str, Relation]
    ) -> Tuple[DatabaseEntry, Tuple[str, ...]]:
        """Apply a per-relation update to a registered database.

        ``updates`` maps relation names to their new contents (existing
        names are replaced, new names appended).  Only genuinely changed
        relations get their version bumped; the returned tuple is
        ``(new_entry, touched_names)`` where ``touched_names`` are the
        relations whose contents actually changed — what the runtime
        feeds to relation-granular cache invalidation.
        """
        with self._lock:
            if name not in self._databases:
                raise SchemaError(f"database {name!r} is not registered")
            previous = self._databases[name]
            merged = previous.database
            touched: List[str] = []
            for rel_name, relation in updates.items():
                if (
                    rel_name in previous.database
                    and previous.database[rel_name] == relation
                ):
                    continue  # no-op update: keep the version
                merged = merged.with_relation(rel_name, relation)
                touched.append(rel_name)
            entry = self.register_database(name, merged)
            return entry, tuple(touched)

    def get_database(self, name: str) -> DatabaseEntry:
        with self._lock:
            entry = self._databases.get(name)
            if entry is None:
                raise SchemaError(
                    f"database {name!r} is not registered; "
                    f"known: {sorted(self._databases)}"
                )
        return entry

    def databases(self) -> List[DatabaseEntry]:
        with self._lock:
            return list(self._databases.values())

    # -- queries -------------------------------------------------------------

    def register_query(
        self,
        name: str,
        query: QuerySpec,
        *,
        signature: Optional[QueryArity] = None,
        engine: Optional[str] = None,
        check: bool = True,
        max_order: Optional[int] = None,
    ) -> QueryEntry:
        """Register (or replace) the plan ``name``.

        ``query`` is a lambda term (optionally checked against an arity
        ``signature`` per Lemma 3.9) or a :class:`FixpointQuery` spec.
        ``engine`` overrides the auto-selection; ``max_order`` declares an
        order budget the plan must certify under (TLI007 otherwise);
        ``check=False`` skips registration-time static analysis (untyped
        experiments only).

        Checked registration runs the full static analyzer: a report with
        errors fails registration, and the report (warnings, order and
        cost certificates) is attached to the returned entry.
        """
        if isinstance(query, FixpointQuery):
            entry = self._register_fixpoint(
                name, query, engine, check, max_order
            )
        elif isinstance(query, Term):
            entry = self._register_term(
                name, query, signature, engine, check, max_order
            )
        else:
            raise EvaluationError(
                f"query {name!r} must be a Term or FixpointQuery, "
                f"got {type(query).__name__}"
            )
        self._cross_check_contract(entry)
        if entry.compiled is not None and self.compile_observer is not None:
            self.compile_observer(entry.compiled)
        with self._lock:
            self._queries[name] = entry
        return entry

    def _cross_check_contract(self, entry: QueryEntry) -> None:
        """Check the plan's schema contract against every registered
        database (TLI024/TLI025 appended to the report).

        A mismatch is a *warning* here, not an error: a catalog may hold
        databases the plan never targets.  Admission rejects the pair
        hard when a request actually combines them.
        """
        provenance = entry.provenance
        if entry.report is None or provenance is None:
            return
        for db_entry in self.databases():
            mismatches, unused = check_schema_contract(
                provenance, database_schema(db_entry.database)
            )
            for message in mismatches:
                entry.report.add(
                    "TLI024",
                    f"against database {db_entry.name!r}: {message}",
                    severity=Severity.WARNING,
                )
            for message in unused:
                entry.report.add(
                    "TLI025",
                    f"against database {db_entry.name!r}: {message}",
                )

    def _register_term(
        self,
        name: str,
        query: Term,
        signature: Optional[QueryArity],
        engine: Optional[str],
        check: bool,
        max_order: Optional[int],
    ) -> QueryEntry:
        order: Optional[int] = None
        report: Optional[AnalysisReport] = None
        if check:
            report = analyze_term(
                query, name=name, signature=signature, max_order=max_order
            )
            if not report.ok:
                # Typing and signature failures re-raise through the
                # original checkers so callers see the precise exception
                # types; analyzer-only findings fall through to the
                # generic rejection below.
                if signature is not None:
                    recognize_tli(query, signature)
                else:
                    from repro.types.infer import infer

                    infer(query)
                self._reject(name, report)
            order = report.order
        term = intern_term(query)
        simplified: Optional[Term] = None
        if report is not None and report.simplified is not None:
            simplified = intern_term(report.simplified)
        decision: Optional[CompileDecision] = None
        if report is not None and signature is not None:
            plan_term = simplified if simplified is not None else term
            decision = compile_decision(
                plan_term, signature.inputs, signature.output
            )
            if decision.compiled:
                report.add(
                    "TLI028",
                    f"plan compiles to relational algebra: "
                    f"{decision.summary}",
                )
            else:
                report.add(
                    "TLI029",
                    f"compile fallback to reduction "
                    f"({decision.reason}): {decision.summary}",
                )
        if engine:
            runs_staged(engine, name, term=True, spec=False)
            chosen = engine
        elif decision is not None and decision.compiled:
            chosen = "ra"
        else:
            chosen = "nbe"
        return QueryEntry(
            name=name,
            kind="term",
            term=term,
            engine=chosen,
            digest=digest(term),
            signature=signature,
            order=order,
            report=report,
            simplified=simplified,
            compiled=decision,
        )

    def _register_fixpoint(
        self,
        name: str,
        query: FixpointQuery,
        engine: Optional[str],
        check: bool = True,
        max_order: Optional[int] = None,
    ) -> QueryEntry:
        report: Optional[AnalysisReport] = None
        if check:
            report = analyze_fixpoint(query, name=name, max_order=max_order)
            if not report.ok:
                # Schema-invalid steps re-raise through the compiler
                # (precise SchemaError); budget violations and the like
                # fall through to the generic rejection.
                build_fixpoint_query(query)
                self._reject(name, report)
        # Compile the Theorem 4.2 tower once: validates the spec, and the
        # compiled term is what non-fixpoint engines (reference
        # cross-checks) normalize.
        compiled = intern_term(build_fixpoint_query(query))
        # A fixpoint step is already relational algebra, so the decision
        # always compiles; the stage evaluator stays the default (``"ra"``
        # is the per-entry/per-request opt-in to the set-based runner).
        decision = decision_for_fixpoint(query) if check else None
        if report is not None and decision is not None:
            report.add(
                "TLI028",
                f"fixpoint step compiles to set algebra: "
                f"{decision.summary}",
            )
        chosen = engine or FIXPOINT_ENGINE
        runs_staged(chosen, name, term=True, spec=True)
        signature = QueryArity(
            tuple(k for _, k in query.input_schema), query.output_arity
        )
        return QueryEntry(
            name=name,
            kind="fixpoint",
            term=compiled,
            engine=chosen,
            digest=digest(compiled),
            fixpoint=query,
            signature=signature,
            order=4,  # TLI=1 towers live at order 4 (Definition 3.7).
            report=report,
            compiled=decision,
        )

    @staticmethod
    def _reject(name: str, report: AnalysisReport) -> None:
        details = "; ".join(d.format() for d in report.errors())
        raise EvaluationError(
            f"query {name!r} failed static analysis: {details}"
        )

    def get_query(self, name: str) -> QueryEntry:
        with self._lock:
            entry = self._queries.get(name)
            if entry is None:
                raise EvaluationError(
                    f"query {name!r} is not registered; "
                    f"known: {sorted(self._queries)}"
                )
        return entry

    def queries(self) -> List[QueryEntry]:
        with self._lock:
            return list(self._queries.values())

    # -- bindings ------------------------------------------------------------

    def bind(
        self, query: QueryEntry, database: DatabaseEntry, engine: str
    ) -> Binding:
        """The :class:`Binding` of ``query`` to this version of
        ``database``, where a request is resolved and priced.

        The binding is memoized on the database entry when both entries
        are the catalog's current registrations; a memoized binding is
        reused only for the very plan entry it was made from, so a
        re-registered plan is bound afresh.  Inline plans and databases
        are never registered, so they are bound per request.  (The
        unlocked reads are single dict operations; a lost race binds
        twice, to equal bindings.)
        """
        key = (query.name, engine)
        binding = database.bindings.get(key)
        if binding is not None and binding.query is query:
            return binding
        binding = Binding.of(query, database, engine)
        if (
            self._queries.get(query.name) is query
            and self._databases.get(database.name) is database
        ):
            database.bindings[key] = binding
        return binding

    def summary(self) -> dict:
        with self._lock:
            return {
                "databases": [e.summary() for e in self._databases.values()],
                "queries": [e.summary() for e in self._queries.values()],
            }
