"""Command-line interface: ``repro <command> ...`` (or ``python -m repro``).

Commands:

* ``normalize`` — reduce a term to normal form (any engine, step counts);
* ``type`` — reconstruct the principal TLC= or core-ML= type and order;
* ``run`` — apply a query term to a database (JSON) and print the answer;
* ``translate`` — compile a TLI=0/MLI=0 query term to a first-order
  formula (Theorem 5.1) and optionally evaluate it;
* ``fo`` — evaluate a first-order query (text syntax), either directly or
  compiled through relational algebra into a TLI=0 term and reduced
  (the Theorem 4.1 pipeline);
* ``datalog`` — evaluate a Datalog(-not) program over a database, either
  with the baseline engine or (single-IDB programs) compiled to a TLI=1
  term and evaluated by the Theorem 5.2 fixpoint evaluator;
* ``encode`` / ``decode`` — move between relations and lambda terms;
* ``catalog`` — register databases/queries in a service catalog and print
  the registration summary (engines, orders, digests);
* ``batch`` — serve a JSON batch of requests through the query service
  runtime (shared encodings, result cache, thread-pool execution);
* ``stats`` — serve an optional batch, then dump the service's metrics
  registry (JSON or Prometheus text exposition);
* ``trace`` — serve one request with tracing enabled and print its span
  tree (resolve → cache → fuel → evaluate → decode, with the reduction
  profiler's beta/delta/let/quote breakdown on the evaluation span;
  ``--shards k`` shows the merged tree with per-shard worker spans);
* ``explain`` — EXPLAIN ANALYZE one request: the static side (order
  certificate, cost polynomial before/after abstract-interpretation
  tightening, read-set, distribution class) joined with the observed
  side (engine, cache path, per-shard fuel vs. steps, bound ratio,
  span timings), as JSON;
* ``flight`` — serve an optional batch with the flight recorder on and
  dump the retained records (slow/errored/bound-breaching/explained)
  plus recorder stats;
* ``serve`` — serve the catalog over HTTP: the asyncio edge with bearer
  auth, per-client rate limiting, fuel-denominated admission control,
  ``/health`` + ``/metrics``, and graceful drain on SIGTERM.

The database JSON format maps relation names to tuple lists, e.g.::

    {"E": [["o1", "o2"], ["o2", "o3"]], "S": [["o1"]]}

Relation order in the file is the list-representation order
(Definition 3.4).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Dict, List

from repro.db.decode import decode_relation
from repro.db.encode import encode_relation
from repro.db.relations import Database, Relation
from repro.errors import ReproError
from repro.eval.driver import run_query
from repro.eval.fo_translation import translate_query
from repro.lam.parser import parse
from repro.lam.pretty import pretty
from repro.lam.reduce import Strategy, normalize
from repro.lam.nbe import nbe_normalize
from repro.queries.language import QueryArity, recognize_mli, recognize_tli
from repro.service.engines import ENGINE_TABLE, ENGINES
from repro.types.infer import infer
from repro.types.ml import ml_infer
from repro.types.order import ground
from repro.types.order import order as type_order


def load_database(path: str) -> Database:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read database {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"database {path!r} is not valid JSON: {exc}") from exc
    relations: Dict[str, Relation] = {}
    for name, rows in raw.items():
        if not isinstance(rows, list):
            raise ReproError(f"relation {name!r} must be a list of rows")
        arity = len(rows[0]) if rows else 0
        relations[name] = Relation.from_tuples(
            arity, [tuple(str(v) for v in row) for row in rows]
        )
    return Database.of(relations)


def read_term_argument(value: str, constants=()):
    """A term given inline, or @path to read it from a file."""
    if value.startswith("@"):
        try:
            with open(value[1:]) as handle:
                value = handle.read()
        except OSError as exc:
            raise ReproError(
                f"cannot read term file {value[1:]!r}: {exc}"
            ) from exc
    return parse(value, constants=constants)


def cmd_normalize(args) -> int:
    term = read_term_argument(args.term, constants=args.constants or ())
    if args.engine == "nbe":
        print(pretty(nbe_normalize(term)))
        return 0
    strategy = (
        Strategy.APPLICATIVE_ORDER
        if args.engine == "applicative"
        else Strategy.NORMAL_ORDER
    )
    outcome = normalize(term, strategy, fuel=args.fuel)
    print(pretty(outcome.term))
    if args.steps:
        print(
            f"# steps: {outcome.steps} "
            f"(beta {outcome.beta_steps}, delta {outcome.delta_steps}, "
            f"let {outcome.let_steps})",
            file=sys.stderr,
        )
    return 0


def cmd_type(args) -> int:
    term = read_term_argument(args.term, constants=args.constants or ())
    if args.ml:
        result = ml_infer(term)
        label = "core-ML="
    else:
        result = infer(term)
        label = "TLC="
    print(f"{label} principal type: {result.type}")
    print(f"order (minimal ground instance): "
          f"{type_order(ground(result.type))}")
    print(f"derivation order: {result.derivation_order()}")
    return 0


def cmd_run(args) -> int:
    term = read_term_argument(args.query, constants=args.constants or ())
    database = load_database(args.db)
    outcome = run_query(
        term, database, arity=args.arity, engine=args.engine
    )
    for row in outcome.relation.tuples:
        print("\t".join(row))
    if args.verbose:
        print(f"# normal form: {pretty(outcome.normal_form)}",
              file=sys.stderr)
    return 0


def cmd_translate(args) -> int:
    term = read_term_argument(args.query, constants=args.constants or ())
    signature = QueryArity(tuple(args.inputs), args.output)
    translation = translate_query(term, signature)
    print(translation.formula)
    if args.db:
        database = load_database(args.db)
        print("# evaluation:", file=sys.stderr)
        for row in translation.evaluate(database).tuples:
            print("\t".join(row))
    return 0


def cmd_recognize(args) -> int:
    term = read_term_argument(args.query, constants=args.constants or ())
    signature = QueryArity(tuple(args.inputs), args.output)
    for label, recognize in (("TLI=", recognize_tli), ("MLI=", recognize_mli)):
        try:
            result = recognize(term, signature)
            print(
                f"{label}{max(result.derivation_order - 3, 0)} query term "
                f"(order {result.derivation_order})"
            )
        except ReproError as exc:
            print(f"not a {label} query term: {exc}")
    return 0


def cmd_fo(args) -> int:
    from repro.eval.materialize import run_ra_query_materialized
    from repro.folog.evaluate import evaluate_fo_query
    from repro.folog.parser import parse_formula
    from repro.queries.fo_compile import compile_fo

    formula = parse_formula(args.formula, constants=args.constants or ())
    database = load_database(args.db)
    output_vars = args.vars
    if args.engine == "lambda":
        schema = {name: relation.arity for name, relation in database}
        expr = compile_fo(formula, output_vars, schema)
        relation = run_ra_query_materialized(expr, database).relation
    else:
        relation = evaluate_fo_query(formula, output_vars, database)
    for row in relation.tuples:
        print("\t".join(row))
    return 0


def cmd_datalog(args) -> int:
    from repro.datalog.compile import datalog_to_fixpoint
    from repro.datalog.engine import evaluate_program
    from repro.datalog.parser import parse_program
    from repro.eval.ptime import run_fixpoint_query

    try:
        with open(args.program) as handle:
            source = handle.read()
    except OSError as exc:
        raise ReproError(
            f"cannot read program {args.program!r}: {exc}"
        ) from exc
    program = parse_program(source)
    database = load_database(args.db)
    if args.engine == "lambda":
        fixpoint = datalog_to_fixpoint(program)
        run = run_fixpoint_query(database=database, query=fixpoint)
        name = program.idb_predicates()[0]
        results = {name: run.relation}
    else:
        derived = evaluate_program(
            program, database, semantics=args.semantics
        )
        results = {name: relation for name, relation in derived}
    for name, relation in results.items():
        for row in relation.tuples:
            print(f"{name}\t" + "\t".join(row))
    return 0


def _split_named(values, what: str):
    """Parse repeated ``NAME=VALUE`` options into an ordered dict."""
    out = {}
    for value in values or ():
        if "=" not in value:
            raise ReproError(
                f"{what} must look like NAME={'PATH' if what == '--db' else 'SPEC'}, "
                f"got {value!r}"
            )
        name, _, rest = value.partition("=")
        if not name or not rest:
            raise ReproError(f"{what} {value!r} has an empty name or value")
        out[name] = rest
    return out


_FIXPOINT_BUILDERS = {
    "tc": ("transitive_closure_query", 1),
    "reach": ("reachability_query", 2),
    "sg": ("same_generation_query", 3),
}


def _parse_fixpoint_spec(spec: str):
    """``tc[:E]``, ``reach[:S,E]``, ``sg[:flat,up,down]`` — the paper's
    three worked fixpoint examples, with optional relation renaming."""
    import repro.queries.fixpoint as fixpoint

    kind, _, rest = spec.partition(":")
    if kind not in _FIXPOINT_BUILDERS:
        raise ReproError(
            f"unknown fixpoint kind {kind!r}; "
            f"choose from {sorted(_FIXPOINT_BUILDERS)}"
        )
    builder_name, argc = _FIXPOINT_BUILDERS[kind]
    builder = getattr(fixpoint, builder_name)
    if not rest:
        return builder()
    names = [n.strip() for n in rest.split(",")]
    if len(names) != argc:
        raise ReproError(
            f"fixpoint kind {kind!r} takes {argc} relation name(s), "
            f"got {len(names)}"
        )
    return builder(*names)


def _build_service(args, tracer=None):
    """Register the ``--db`` / ``--query`` / ``--fixpoint`` options into a
    fresh :class:`repro.service.QueryService`."""
    from repro.service import QueryService

    service = QueryService(
        cache_capacity=args.cache_capacity,
        tracer=tracer,
        slow_query_ms=getattr(args, "slow_query_ms", None),
    )
    for name, path in _split_named(args.db, "--db").items():
        service.catalog.register_database(name, load_database(path))
    signature = None
    if args.inputs is not None or args.output is not None:
        if args.inputs is None or args.output is None:
            raise ReproError("--inputs and --output must be given together")
        signature = QueryArity(tuple(args.inputs), args.output)
    for name, spec in _split_named(args.query, "--query").items():
        term = read_term_argument(spec, constants=args.constants or ())
        service.catalog.register_query(
            name, term, signature=signature, check=not args.no_check
        )
    for name, spec in _split_named(args.fixpoint, "--fixpoint").items():
        service.catalog.register_query(name, _parse_fixpoint_spec(spec))
    return service


def cmd_catalog(args) -> int:
    service = _build_service(args)
    summary = service.catalog.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    for entry in summary["databases"]:
        versions = entry.get("relation_versions") or {}
        relations = ", ".join(
            f"{name}[{count}]"
            + (f"@v{versions[name]}" if name in versions else "")
            for name, count in entry["relations"].items()
        )
        print(
            f"db {entry['name']} v{entry['version']} "
            f"digest={entry['digest']} |D|={entry['active_domain']} "
            f"({relations})"
        )
    for entry in summary["queries"]:
        order = f" order={entry['order']}" if entry["order"] else ""
        sig = f" sig={entry['signature']}" if entry["signature"] else ""
        cost = f" cost={entry['cost']}" if entry.get("cost") else ""
        reads = f" reads={entry['reads']}" if entry.get("reads") else ""
        print(
            f"query {entry['name']} kind={entry['kind']} "
            f"engine={entry['engine']} digest={entry['digest']}"
            f"{order}{sig}{cost}{reads}"
        )
        for warning in entry.get("warnings", ()):
            print(f"  warning: {warning}")
    return 0


def cmd_lint(args) -> int:
    """Run the static query certifier over files, catalog-style entries,
    and/or the built-in operator library."""
    from repro.analysis import (
        LintTarget,
        Severity,
        analyze,
        collect_lam_files,
        load_lam_file,
        operator_library_targets,
        render_reports_json,
    )

    signature = None
    if args.inputs is not None or args.output is not None:
        if args.inputs is None or args.output is None:
            raise ReproError("--inputs and --output must be given together")
        signature = QueryArity(tuple(args.inputs), args.output)

    targets = []
    if args.operators:
        targets.extend(operator_library_targets())
    for path in collect_lam_files(args.paths or []):
        targets.append(load_lam_file(path))
    constants = set(args.constants or ())
    for name, spec in _split_named(args.query, "--query").items():
        term = read_term_argument(spec, constants=sorted(constants))
        targets.append(
            LintTarget(
                name=name,
                plan=term,
                signature=signature,
                known_constants=constants or None,
            )
        )
    for name, spec in _split_named(args.fixpoint, "--fixpoint").items():
        targets.append(LintTarget(name=name, plan=_parse_fixpoint_spec(spec)))
    if not targets:
        raise ReproError(
            "nothing to lint: give .lam files/directories, --operators, "
            "--query, or --fixpoint"
        )

    reports = []
    failures = 0
    lines = []
    for target in targets:
        max_order = (
            target.max_order if target.max_order is not None else args.budget
        )
        report = analyze(
            target.plan,
            name=target.name,
            signature=target.signature,
            max_order=max_order,
            known_constants=target.known_constants,
            target_schema=getattr(target, "target_schema", None),
        )
        reports.append(report)
        # Expected codes (the seeded bad-query corpus) must fire and do
        # not count against the target; everything else does.
        fired = set(report.codes())
        missing = sorted(target.expect - fired)
        blocking = [
            d
            for d in report.diagnostics
            if d.code not in target.expect
            and (
                d.severity == Severity.ERROR
                or (args.strict and d.severity == Severity.WARNING)
            )
        ]
        ok = not blocking and not missing
        failures += 0 if ok else 1
        lines.append(report.render(verbose=args.verbose))
        if args.analyze:
            lines.extend(_render_abstract_facts(report))
            lines.extend(_render_compile_facts(target, report))
        if missing:
            lines.append(
                f"  expected diagnostic(s) did not fire: {', '.join(missing)}"
            )

    if args.json:
        payload = render_reports_json(reports)
        payload["summary"]["strict"] = args.strict
        payload["summary"]["exit_failures"] = failures
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
        print(
            f"{len(reports)} plan(s) analyzed, {failures} failing"
            f"{' (strict)' if args.strict else ''}"
        )
    return 1 if failures else 0


def _render_abstract_facts(report) -> list:
    """The ``repro lint --analyze`` fact block for one report."""
    facts = report.facts
    if facts is None:
        return ["  (no abstract facts: plan did not reach the absint pass)"]
    out = []
    if facts.get("fallback"):
        out.append(f"  absint fell back: {facts['fallback']}")
    else:
        for name, interval in sorted(
            (facts.get("input_scans") or {}).items()
        ):
            depths = sorted(
                site["depth"]
                for site in facts.get("scan_sites", ())
                if site["input"] == name
            )
            out.append(
                f"  input {name}: scan sites in "
                f"[{interval['lo']}, {interval['hi']}]"
                + (f" at depths {depths}" if depths else "")
            )
        if facts.get("kind") == "term":
            out.append(
                f"  loop-entry degree {facts.get('scan_degree', 0)}, "
                f"output rows <= {facts.get('emit_sites', 0)}"
                f"*T^{facts.get('emit_degree', 0)}"
            )
        stage = facts.get("stage_interval")
        if stage is not None:
            hi = stage["hi"] if stage["hi"] is not None else "|D|^k"
            out.append(f"  fixpoint stages in [{stage['lo']}, {hi}]")
        if facts.get("let_bindings"):
            dead = facts.get("dead_bindings") or []
            out.append(
                f"  {facts['let_bindings']} let binding(s)"
                + (f", dead: {', '.join(dead)}" if dead else "")
            )
    if report.tightened_cost is not None and report.cost is not None:
        out.append(
            f"  cost {report.cost.describe()} -> tightened "
            f"{report.tightened_cost.describe()}"
        )
    elif report.cost is not None:
        out.append(f"  cost {report.cost.describe()} (not tightened)")
    if getattr(report, "provenance", None) is not None:
        out.extend(f"  {line}" for line in report.provenance.render())
    return out


def _render_compile_facts(target, report) -> list:
    """The ``repro lint --analyze`` compile-decision line: what the
    plan compiler (`repro.compile`) would do with this plan — the
    physical operator chain when it lowers (TLI028), the fallback
    taxonomy tag when it doesn't (TLI029)."""
    from repro.compile import compile_decision, decision_for_fixpoint
    from repro.queries.fixpoint import FixpointQuery

    plan = target.plan
    if isinstance(plan, FixpointQuery):
        decision = decision_for_fixpoint(plan)
    elif target.signature is not None and report.ok:
        plan_term = (
            report.simplified if report.simplified is not None else plan
        )
        decision = compile_decision(
            plan_term, target.signature.inputs, target.signature.output
        )
    else:
        return [
            "  compile: not attempted "
            "(needs a passing analysis with an arity signature)"
        ]
    if decision.compiled:
        return [f"  compile: {decision.summary}"]
    return [f"  compile: fallback ({decision.reason}) {decision.summary}"]


def _load_batch_requests(path: str, service, constants):
    from repro.service import QueryRequest

    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read batch {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"batch {path!r} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw = raw.get("requests", [])
    if not isinstance(raw, list):
        raise ReproError("batch file must be a list or {\"requests\": [...]}")
    known_queries = {entry.name for entry in service.catalog.queries()}
    db_names = [entry.name for entry in service.catalog.databases()]
    requests = []
    for index, item in enumerate(raw):
        if not isinstance(item, dict) or "query" not in item:
            raise ReproError(
                f"batch request #{index} must be an object with a 'query'"
            )
        query = item["query"]
        if query not in known_queries:
            # Not a registered name: treat as an inline term (or @file).
            query = read_term_argument(query, constants=constants)
        database = item.get("db")
        if database is None:
            if len(db_names) != 1:
                raise ReproError(
                    f"batch request #{index} names no 'db' and "
                    f"{len(db_names)} databases are registered"
                )
            database = db_names[0]
        requests.append(
            QueryRequest(
                query=query,
                database=database,
                engine=item.get("engine"),
                arity=item.get("arity"),
                fuel=item.get("fuel"),
                timeout_s=item.get("timeout_s"),
                tag=item.get("tag", f"#{index}"),
            )
        )
    return requests


def cmd_batch(args) -> int:
    service = _build_service(args)
    requests = _load_batch_requests(
        args.requests, service, args.constants or ()
    )
    if args.repeat > 1:
        requests = [r for _ in range(args.repeat) for r in requests]
    result = service.execute_batch(requests, max_workers=args.workers)
    if args.json:
        print(
            json.dumps(
                {
                    "responses": [
                        r.as_dict(include_tuples=not args.no_tuples)
                        for r in result.responses
                    ],
                    "stats": result.stats,
                    "service": service.stats(),
                },
                indent=2,
            )
        )
        return 0
    for response in result.responses:
        cache = "hit" if response.cache_hit else "miss"
        print(
            f"== {response.tag} {response.query}@{response.database} "
            f"{response.status} engine={response.engine} cache={cache} "
            f"wall={response.wall_ms:.2f}ms"
        )
        if response.relation is not None and not args.no_tuples:
            for row in response.relation.tuples:
                print("\t".join(row))
        elif response.error:
            print(f"   {response.error}")
    stats = result.stats
    print(
        f"# {stats['requests']} requests, {stats['cache_hits']} cache hits "
        f"({stats['hit_rate']:.0%}), p50 {stats['latency_p50_ms']}ms, "
        f"p95 {stats['latency_p95_ms']}ms, "
        f"{stats['throughput_qps']} req/s",
        file=sys.stderr,
    )
    return 0 if all(r.ok for r in result.responses) else 1


def cmd_stats(args) -> int:
    """Dump the service's metrics registry, optionally after serving a
    batch (so the counters describe real traffic rather than zeros)."""
    service = _build_service(args)
    if args.requests:
        requests = _load_batch_requests(
            args.requests, service, args.constants or ()
        )
        if args.repeat > 1:
            requests = [r for _ in range(args.repeat) for r in requests]
        service.execute_batch(requests, max_workers=args.workers)
    if args.prometheus:
        print(service.registry.render_prometheus(), end="")
        return 0
    if args.json:
        from repro.obs.info import runtime_info

        payload = service.registry.as_dict()
        payload["service"] = service.stats()
        payload["runtime"] = runtime_info()
        print(json.dumps(payload, indent=2))
        return 0
    stats = service.stats()
    print(
        f"# {stats['requests']} requests, statuses={stats['statuses']}, "
        f"p50 {stats['latency_p50_ms']}ms, p95 {stats['latency_p95_ms']}ms, "
        f"{stats['slow_queries']} slow"
    )
    cache = stats["cache"]
    print(
        f"# cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['hit_rate']:.0%}), {cache['inflight_waits']} inflight "
        f"waits, {cache['size']}/{cache['capacity']} entries"
    )
    for metric in service.registry.as_dict()["metrics"]:
        for entry in metric["values"]:
            labels = entry.get("labels") or {}
            label_text = (
                "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"
                if labels
                else ""
            )
            if metric["type"] == "histogram":
                print(
                    f"{metric['name']}{label_text} "
                    f"count={entry['count']} sum={entry['sum']}"
                )
            else:
                print(f"{metric['name']}{label_text} {entry['value']}")
    return 0


def _resolve_target(service, args):
    """The request the CLI's request options describe
    (``add_request_options``), resolved against the catalog: a
    registered QUERY name passes through, anything else parses as an
    inline term; a lone registered database is the default."""
    from repro.service import QueryRequest

    query = args.query_ref
    known_queries = {entry.name for entry in service.catalog.queries()}
    if query not in known_queries:
        query = read_term_argument(query, constants=args.constants or ())
    database = args.database
    if database is None:
        db_names = [entry.name for entry in service.catalog.databases()]
        if len(db_names) != 1:
            raise ReproError(
                f"--database required: {len(db_names)} databases are "
                f"registered"
            )
        database = db_names[0]
    return QueryRequest(
        query=query,
        database=database,
        engine=args.engine,
        arity=args.arity,
        fuel=args.fuel,
        shards=args.shards,
    )


def cmd_explain(args) -> int:
    """EXPLAIN ANALYZE one request: run it with the flight recorder on
    and print the report joining the static certificate side with the
    observed execution side (JSON)."""
    service = _build_service(args)
    service.enable_flight()
    try:
        response = service.execute(
            replace(_resolve_target(service, args), explain=True)
        )
    finally:
        service.close()
    print(json.dumps(response.explain or {}, indent=2))
    return 0 if response.ok else 1


def cmd_flight(args) -> int:
    """Serve an optional batch with the flight recorder on, then dump
    the retained records and the recorder's stats (JSON)."""
    service = _build_service(args)
    flight = service.enable_flight()
    try:
        if args.requests:
            requests = _load_batch_requests(
                args.requests, service, args.constants or ()
            )
            if args.repeat > 1:
                requests = [r for _ in range(args.repeat) for r in requests]
            service.execute_batch(requests, max_workers=args.workers)
        payload = {
            "records": flight.records(
                trace_id=args.trace_id, limit=args.limit
            ),
            "stats": flight.snapshot(),
        }
    finally:
        service.close()
    print(json.dumps(payload, indent=2))
    return 0


def cmd_trace(args) -> int:
    """Serve one request with tracing on and print the span tree."""
    from repro.obs.tracing import (
        JsonlExporter,
        RingBufferExporter,
        Tracer,
        render_span_tree,
    )

    ring = RingBufferExporter()
    exporters = [ring]
    jsonl = None
    if args.trace_out:
        jsonl = JsonlExporter(args.trace_out)
        exporters.append(jsonl)
    tracer = Tracer(exporters=exporters, enabled=True)
    service = _build_service(args, tracer=tracer)

    try:
        request = _resolve_target(service, args)
        for _ in range(max(1, args.repeat)):
            response = service.execute(request)
    finally:
        service.close()
        if jsonl is not None:
            jsonl.close()

    leaked = tracer.open_spans()
    if leaked:  # pragma: no cover - would be a runtime bug
        print(
            f"warning: {len(leaked)} span(s) never closed: "
            f"{[span.name for span in leaked]}",
            file=sys.stderr,
        )

    if args.json:
        print(
            json.dumps(
                {
                    "response": response.as_dict(
                        include_tuples=not args.no_tuples
                    ),
                    "spans": [span.as_dict() for span in ring.spans()],
                },
                indent=2,
            )
        )
        return 0 if response.ok else 1

    print(render_span_tree(ring.spans()))
    profile = response.profile or {}
    if profile:
        print(
            f"# profile: steps={profile.get('steps')} "
            f"beta={profile.get('beta')} delta={profile.get('delta')} "
            f"let={profile.get('let')} quote={profile.get('quote')} "
            f"max_depth={profile.get('max_depth')}",
            file=sys.stderr,
        )
        if profile.get("static_bound") is not None:
            print(
                f"# static bound: {profile['static_bound']} "
                f"(observed/bound = {profile['bound_ratio']})",
                file=sys.stderr,
            )
    if response.relation is not None and not args.no_tuples:
        for row in response.relation.tuples:
            print("\t".join(row))
    elif response.error:
        print(f"# {response.status}: {response.error}", file=sys.stderr)
    return 0 if response.ok else 1


def cmd_shard(args) -> int:
    """Evaluate one request on the sharded execution engine and (by
    default) check it against the in-process result."""
    from repro.shard import ShardPolicy, canonical_relation

    service = _build_service(args)
    try:
        policy = ShardPolicy(
            shards=args.shards,
            partitioner=args.partitioner,
            fallback=args.fallback,
            task_timeout_s=args.task_timeout_s,
        )
        request = replace(_resolve_target(service, args), shards=None)
        sharded = service.execute(replace(request, shard_policy=policy))
        local = None
        match = None
        speedup = None
        if not args.no_compare and sharded.ok:
            local = service.execute(request)
            if local.ok:
                match = canonical_relation(local.relation) == (
                    canonical_relation(sharded.relation)
                )
                if (
                    sharded.compute_wall_ms
                    and local.compute_wall_ms is not None
                ):
                    speedup = round(
                        local.compute_wall_ms / sharded.compute_wall_ms, 3
                    )
        shard_profile = (sharded.profile or {}).get("shard")

        if args.json:
            print(
                json.dumps(
                    {
                        "response": sharded.as_dict(
                            include_tuples=not args.no_tuples
                        ),
                        "plan": shard_profile,
                        "match": match,
                        "speedup": speedup,
                        "local_compute_wall_ms": (
                            round(local.compute_wall_ms, 3)
                            if local is not None
                            and local.compute_wall_ms is not None
                            else None
                        ),
                    },
                    indent=2,
                )
            )
            return 0 if sharded.ok and match is not False else 1

        if shard_profile is None:
            print(
                f"# plan is not shard-distributable; served "
                f"{sharded.status} in-process"
            )
        else:
            print(
                f"# mode={shard_profile['mode']} [{shard_profile['code']}] "
                f"shards={shard_profile['shards']} "
                f"partitioner={shard_profile['partitioner']} "
                f"split={','.join(shard_profile['partitioned'])}"
            )
            for row in shard_profile["rows"]:
                ratio = row.get("bound_ratio")
                print(
                    f"#   shard {row['shard']}: in={row['input_tuples']} "
                    f"steps={row['steps']} fuel={row['fuel']} "
                    f"bound_ratio={ratio if ratio is not None else '-'} "
                    f"worker={row['worker']} retries={row['retries']}"
                    + (" degraded" if row["degraded"] else "")
                )
        if match is not None:
            verdict = "equal" if match else "MISMATCH"
            print(
                f"# vs in-process: {verdict}"
                + (f", speedup {speedup}x" if speedup is not None else "")
            )
        if sharded.relation is not None and not args.no_tuples:
            for row in sharded.relation.tuples:
                print("\t".join(row))
        elif sharded.error:
            print(f"# {sharded.status}: {sharded.error}", file=sys.stderr)
        return 0 if sharded.ok and match is not False else 1
    finally:
        service.close()


def cmd_serve(args) -> int:
    """Serve the catalog over HTTP: the asyncio edge with auth, rate
    limiting, fuel-denominated admission control, and graceful drain."""
    import asyncio

    from repro.http import QueryEdge, ServerConfig, render_listen_line

    config = ServerConfig.from_env()
    for option in (
        "host", "port", "rate_limit", "rate_burst", "max_inflight_fuel",
        "max_queue_fuel", "queue_timeout_s", "uncertified_fuel",
        "retry_after_s", "workers", "drain_timeout_s", "request_timeout_s",
    ):
        value = getattr(args, option, None)
        if value is not None:
            setattr(config, option, value)
    if args.token:
        config.tokens = tuple(args.token)
    config.validate()

    service = _build_service(args)
    edge = QueryEdge(service, config)
    if not edge.auth.enabled and config.host not in (
        "127.0.0.1", "localhost", "::1"
    ):
        print(
            "warning: serving without bearer auth on a non-loopback "
            "address; pass --token or set REPRO_HTTP_TOKENS",
            file=sys.stderr,
        )

    def on_ready(started: "QueryEdge") -> None:
        print(render_listen_line(started), flush=True)

    try:
        asyncio.run(edge.run(on_ready=on_ready))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        pass
    finally:
        service.close()
    print("repro-edge drained; shard pool closed", flush=True)
    return 0


def cmd_encode(args) -> int:
    database = load_database(args.db)
    for name, relation in database:
        if args.relation and name != args.relation:
            continue
        print(f"{name} = {pretty(encode_relation(relation))}")
    return 0


def cmd_decode(args) -> int:
    term = read_term_argument(args.term, constants=args.constants or ())
    # In a valid encoding every tuple component is a constant (Lemma 3.2),
    # so free variables can only be constants written without the o<digits>
    # convention — promote them, matching what ``repro encode`` prints.
    from repro.lam.subst import substitute_many
    from repro.lam.terms import Const, free_vars

    term = substitute_many(
        term, {name: Const(name) for name in free_vars(term)}
    )
    decoded = decode_relation(term, args.arity)
    for row in decoded.relation.tuples:
        print("\t".join(row))
    if decoded.had_duplicates:
        print("# encoding contained duplicate tuples", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Functional database query languages as typed lambda calculi "
            "(Hillebrand & Kanellakis, PODS 1994)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("normalize", help="reduce a term to normal form")
    p.add_argument("term", help="a term, or @file")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.add_argument("--engine", choices=["nbe", "normal", "applicative"],
                   default="nbe")
    p.add_argument("--fuel", type=int, default=1_000_000)
    p.add_argument("--steps", action="store_true",
                   help="report step counts (small-step engines)")
    p.set_defaults(handler=cmd_normalize)

    p = commands.add_parser("type", help="reconstruct the principal type")
    p.add_argument("term", help="a term, or @file")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.add_argument("--ml", action="store_true",
                   help="use core-ML= (let-polymorphic) reconstruction")
    p.set_defaults(handler=cmd_type)

    p = commands.add_parser("run", help="run a query term over a database")
    p.add_argument("query", help="a query term, or @file")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.add_argument("--db", required=True, help="database JSON file")
    p.add_argument("--arity", type=int, default=None,
                   help="expected output arity")
    p.add_argument("--engine", choices=ENGINES, default="nbe")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=cmd_run)

    p = commands.add_parser(
        "translate",
        help="compile a TLI=0/MLI=0 query to first-order logic",
    )
    p.add_argument("query", help="a query term, or @file")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.add_argument("--inputs", type=int, nargs="+", required=True,
                   help="input arities k1 ... kl")
    p.add_argument("--output", type=int, required=True,
                   help="output arity k")
    p.add_argument("--db", help="optionally evaluate over this database")
    p.set_defaults(handler=cmd_translate)

    p = commands.add_parser(
        "recognize", help="Lemma 3.9: is this a TLI=/MLI= query term?"
    )
    p.add_argument("query", help="a query term, or @file")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.add_argument("--inputs", type=int, nargs="+", required=True)
    p.add_argument("--output", type=int, required=True)
    p.set_defaults(handler=cmd_recognize)

    p = commands.add_parser(
        "fo", help="evaluate a first-order query (Definition 3.5)"
    )
    p.add_argument("formula",
                   help="e.g. \"exists y. R(x, y) & ~S(y, x)\"")
    p.add_argument("--vars", nargs="+", required=True,
                   help="output variables (column order)")
    p.add_argument("--db", required=True, help="database JSON file")
    p.add_argument("--engine", choices=["fo", "lambda"], default="fo",
                   help="direct FO evaluation, or compile through RA to a "
                        "TLI=0 term and reduce (Theorem 4.1)")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as constants")
    p.set_defaults(handler=cmd_fo)

    p = commands.add_parser(
        "datalog", help="evaluate a Datalog(-not) program"
    )
    p.add_argument("program", help="program file (name(X,Y) :- ... syntax)")
    p.add_argument("--db", required=True, help="database JSON file")
    p.add_argument("--engine", choices=["datalog", "lambda"],
                   default="datalog",
                   help="baseline engine, or compile to a TLI=1 term and "
                        "run the Theorem 5.2 evaluator (single IDB only)")
    p.add_argument("--semantics", choices=["stratified", "inflationary"],
                   default="stratified")
    p.set_defaults(handler=cmd_datalog)

    def add_service_options(p):
        p.add_argument("--db", action="append", metavar="NAME=PATH",
                       help="register a database (repeatable)")
        p.add_argument("--query", action="append", metavar="NAME=SPEC",
                       help="register a query term (SPEC is a term or "
                            "@file; repeatable)")
        p.add_argument("--fixpoint", action="append", metavar="NAME=KIND",
                       help="register a fixpoint query: tc[:E], "
                            "reach[:S,E], or sg[:flat,up,down] "
                            "(runs on the Theorem 5.2 PTIME evaluator)")
        p.add_argument("--inputs", type=int, nargs="+",
                       help="input arities for --query order checking")
        p.add_argument("--output", type=int,
                       help="output arity for --query order checking")
        p.add_argument("--constants", nargs="*", metavar="NAME",
                       help="extra names to read as atomic constants")
        p.add_argument("--no-check", action="store_true",
                       help="skip registration-time type/order checking")
        p.add_argument("--cache-capacity", type=int, default=256)
        p.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="log requests slower than this threshold on "
                            "the repro.service.slow logger (and count "
                            "them in repro_slow_queries_total)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    def add_request_options(p, *, shards=None):
        p.add_argument("query_ref", metavar="QUERY",
                       help="a query registered via --query/--fixpoint, "
                            "or an inline term / @file")
        p.add_argument("--database", default=None,
                       help="which registered database to query "
                            "(default: the only one)")
        p.add_argument("--engine", default=None, choices=tuple(ENGINE_TABLE),
                       help="override the plan's engine")
        p.add_argument("--arity", type=int, default=None,
                       help="expected output arity")
        p.add_argument("--fuel", type=int, default=None,
                       help="explicit fuel budget, per shard when sharded "
                            "(default: derived from the static cost "
                            "certificate, at each shard's statistics)")
        p.add_argument("--shards", type=int, default=shards, metavar="K",
                       help="evaluate on the sharded engine with K shards "
                            "(default: %(default)s; none runs in process): "
                            "traces show per-shard worker spans, EXPLAIN "
                            "per-shard fuel/steps rows")

    p = commands.add_parser(
        "catalog",
        help="register databases and query plans, print the catalog",
    )
    add_service_options(p)
    p.set_defaults(handler=cmd_catalog)

    p = commands.add_parser(
        "lint",
        help="statically certify query plans (order, cost, well-formedness)",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help=".lam files or directories; leading '# key: value' "
                        "comment lines declare name/inputs/output/"
                        "max-order/constants/expect")
    p.add_argument("--operators", action="store_true",
                   help="lint the built-in relational operator library")
    p.add_argument("--query", action="append", metavar="NAME=SPEC",
                   help="lint a query term (SPEC is a term or @file; "
                        "repeatable)")
    p.add_argument("--fixpoint", action="append", metavar="NAME=KIND",
                   help="lint a fixpoint query: tc[:E], reach[:S,E], or "
                        "sg[:flat,up,down]")
    p.add_argument("--inputs", type=int, nargs="+",
                   help="input arities for --query signature checking")
    p.add_argument("--output", type=int,
                   help="output arity for --query signature checking")
    p.add_argument("--budget", type=int, default=None,
                   help="derivation-order budget (error above it; "
                        "TLI=i plans live at order i+3)")
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.add_argument("--strict", action="store_true",
                   help="unexpected warnings fail the run too")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--verbose", action="store_true",
                   help="include info-level certificates in text output")
    p.add_argument("--analyze", action="store_true",
                   help="show the abstract-interpretation facts per plan "
                        "(scan sites, per-input scan intervals, "
                        "cardinality, tightened cost)")
    p.set_defaults(handler=cmd_lint)

    p = commands.add_parser(
        "batch",
        help="serve a JSON batch of query requests through the service",
    )
    p.add_argument("requests",
                   help="JSON file: a list of {query, db?, engine?, "
                        "arity?, fuel?, timeout_s?, tag?} objects, or "
                        "{\"requests\": [...]}")
    add_service_options(p)
    p.add_argument("--workers", type=int, default=None,
                   help="thread-pool size (default: min(8, batch size))")
    p.add_argument("--repeat", type=int, default=1,
                   help="serve the request list this many times")
    p.add_argument("--no-tuples", action="store_true",
                   help="omit result tuples from the output")
    p.set_defaults(handler=cmd_batch)

    p = commands.add_parser(
        "stats",
        help="dump the service metrics registry (optionally after a batch)",
    )
    add_service_options(p)
    p.add_argument("--requests", default=None,
                   help="serve this JSON batch first, so the metrics "
                        "describe real traffic")
    p.add_argument("--workers", type=int, default=None,
                   help="thread-pool size for --requests")
    p.add_argument("--repeat", type=int, default=1,
                   help="serve the --requests list this many times")
    p.add_argument("--prometheus", action="store_true",
                   help="Prometheus text exposition instead of JSON/text")
    p.set_defaults(handler=cmd_stats)

    p = commands.add_parser(
        "trace",
        help="serve one request with tracing on and print the span tree",
    )
    add_service_options(p)
    add_request_options(p)
    p.add_argument("--repeat", type=int, default=1,
                   help="serve the request this many times (later runs "
                        "show the cache-hit span shape)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="also append finished spans to this JSONL file")
    p.add_argument("--no-tuples", action="store_true",
                   help="omit result tuples from the output")
    p.set_defaults(handler=cmd_trace)

    p = commands.add_parser(
        "explain",
        help="EXPLAIN ANALYZE one request: the static certificate joined "
             "with the observed execution, as JSON",
    )
    add_service_options(p)
    add_request_options(p)
    p.set_defaults(handler=cmd_explain)

    p = commands.add_parser(
        "flight",
        help="dump flight-recorder records (optionally after serving a "
             "batch)",
    )
    add_service_options(p)
    p.add_argument("--requests", default=None,
                   help="serve this JSON batch first, so the recorder "
                        "holds real traffic")
    p.add_argument("--workers", type=int, default=None,
                   help="thread-pool size for --requests")
    p.add_argument("--repeat", type=int, default=1,
                   help="serve the --requests list this many times")
    p.add_argument("--trace-id", default=None, metavar="TRACE",
                   help="return only this trace's record")
    p.add_argument("--limit", type=int, default=None,
                   help="cap the record listing (newest first)")
    p.set_defaults(handler=cmd_flight)

    p = commands.add_parser(
        "shard",
        help="evaluate a request on the sharded execution engine",
    )
    add_service_options(p)
    add_request_options(p, shards=2)
    p.add_argument("--partitioner", default="hash",
                   choices=["hash", "round_robin"],
                   help="tuple-to-shard assignment rule")
    p.add_argument("--fallback", default="local",
                   choices=["local", "error"],
                   help="what a non-distributable plan does (default: "
                        "fall back to in-process evaluation)")
    p.add_argument("--task-timeout-s", type=float, default=None,
                   help="per-shard task deadline on the worker pool")
    p.add_argument("--no-compare", action="store_true",
                   help="skip the in-process comparison run")
    p.add_argument("--no-tuples", action="store_true",
                   help="omit result tuples from the output")
    p.set_defaults(handler=cmd_shard)

    p = commands.add_parser(
        "serve",
        help="serve the catalog over HTTP (asyncio edge with admission "
             "control and graceful drain)",
    )
    add_service_options(p)
    p.add_argument("--host", default=None,
                   help="bind address (default 127.0.0.1; env "
                        "REPRO_HTTP_HOST)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port; 0 picks an ephemeral port "
                        "(default 8080; env REPRO_HTTP_PORT)")
    p.add_argument("--token", action="append", metavar="TOKEN",
                   help="accept this bearer token (repeatable; none = "
                        "open edge; env REPRO_HTTP_TOKENS=a,b)")
    p.add_argument("--rate-limit", type=float, default=None, metavar="RPS",
                   help="per-client sustained requests/second "
                        "(<= 0 disables; default 50)")
    p.add_argument("--rate-burst", type=int, default=None,
                   help="per-client token-bucket burst (default 100)")
    p.add_argument("--max-inflight-fuel", type=int, default=None,
                   metavar="FUEL",
                   help="certified fuel units allowed to execute "
                        "concurrently (admission capacity)")
    p.add_argument("--max-queue-fuel", type=int, default=None,
                   metavar="FUEL",
                   help="certified fuel units allowed to wait for "
                        "capacity")
    p.add_argument("--queue-timeout-s", type=float, default=None,
                   help="max seconds a request may wait for admission")
    p.add_argument("--uncertified-fuel", type=int, default=None,
                   metavar="FUEL",
                   help="fuel charged for plans without a cost "
                        "certificate")
    p.add_argument("--retry-after-s", type=int, default=None,
                   help="Retry-After hint on 429/503 responses")
    p.add_argument("--workers", type=int, default=None,
                   help="service-execution thread pool size (default 8)")
    p.add_argument("--drain-timeout-s", type=float, default=None,
                   help="max seconds SIGTERM waits for in-flight "
                        "requests")
    p.add_argument("--request-timeout-s", type=float, default=None,
                   help="default per-request deadline passed to the "
                        "service")
    p.set_defaults(handler=cmd_serve)

    p = commands.add_parser("encode", help="encode database relations")
    p.add_argument("--db", required=True)
    p.add_argument("--relation", help="encode only this relation")
    p.set_defaults(handler=cmd_encode)

    p = commands.add_parser("decode", help="decode a relation encoding")
    p.add_argument("term", help="a normal-form encoding, or @file")
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--constants", nargs="*", metavar="NAME",
                   help="extra names to read as atomic constants")
    p.set_defaults(handler=cmd_decode)

    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
