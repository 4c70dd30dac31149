"""Seeded inputs, catalog set-up and operation streams for each workload.

Everything here is a pure function of the seed: the same seed gives the
same databases and the same operation sequence.  The generators use only
:mod:`random` and build :class:`repro.db.relations.Relation` values, so a
change to the program's own data generators cannot change the inputs.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``edge_hot``  -- 6 compiled term plans x 4 databases (R, S of 200
  tuples), Zipf-skewed keys over HTTP; 24 keys, all cache hits after
  warm-up.
* ``churn``     -- the same 6 plans x 3 databases (R, S of 500 tuples);
  every third operation replaces R or S of one database with a copy that
  has one tuple deleted and one inserted.
* ``recursive`` -- tc, reachability and same-generation on the ``"ra"``
  engine over 400 tenant databases; ~1200 keys against the 256-entry
  result cache.
* ``sharded``   -- ``churn``'s operation stream with ``shards=2`` on every
  read, on a service with 2 shard workers.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace as Sizes
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("edge_hot", "churn", "recursive", "sharded")

TERM_PLANS = ("filter", "project", "join", "union", "difference", "intersect")
FIXPOINT_PLANS = ("tc", "reach", "sg")

#: The filter plan's selection constant (``R.0 = o1``).
FILTER_CONSTANT = "o1"

Row = Tuple[str, ...]

#: Input sizes per workload.  Key counts against the service's 256-entry
#: result cache: edge_hot 6 x 4 = 24 (fits), churn and sharded 6 x 3 = 18
#: (fit; updates invalidate), recursive 3 x 400 = 1200 (overflows).
FULL_SIZES = {
    "edge_hot": Sizes(databases=4, tuples=200),
    "churn": Sizes(databases=3, tuples=500),
    "recursive": Sizes(tenants=400, min_nodes=10, max_nodes=24,
                       out_degree=2),
    "sharded": Sizes(databases=3, tuples=500),
}

#: The self-check tests' sizes.
TINY_SIZES = {
    "edge_hot": Sizes(databases=2, tuples=20),
    "churn": Sizes(databases=2, tuples=40),
    "recursive": Sizes(tenants=12, min_nodes=5, max_nodes=8, out_degree=2),
    "sharded": Sizes(databases=2, tuples=40),
}


def _rng(seed: int, *parts: object) -> random.Random:
    # String seeds are hashed with SHA-512 by ``random``: deterministic
    # across processes, unlike ``hash()``.
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _const(index: int) -> str:
    return f"o{index}"


def random_pairs(rng: random.Random, count: int, universe: int) -> List[Row]:
    """``count`` distinct pairs over ``o1..o<universe>``."""
    seen = set()
    rows: List[Row] = []
    while len(rows) < count:
        row = (_const(rng.randint(1, universe)),
               _const(rng.randint(1, universe)))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def term_databases(seed: int, sizes: Sizes) -> Dict[str, Dict[str, List[Row]]]:
    """``{db name: {"R": rows, "S": rows}}`` for the term-plan workloads."""
    out = {}
    for index in range(sizes.databases):
        rng = _rng(seed, "db", index)
        out[f"db{index}"] = {
            "R": random_pairs(rng, sizes.tuples, sizes.tuples),
            "S": random_pairs(rng, sizes.tuples, sizes.tuples),
        }
    return out


def tenant_database(seed: int, index: int, sizes: Sizes) -> Dict[str, List[Row]]:
    """One tenant: a random digraph E with a source S, and a random tree
    as up/down with flat = {(root, root)} for same-generation (every
    pair of tree nodes at equal depth is in the answer)."""
    rng = _rng(seed, "tenant", index)
    # Sizes cycle through the range so every seed has the same mix: the
    # closure's cost grows steeply with the node count, and a random mix
    # would move the mean cost from seed to seed.
    nodes = sizes.min_nodes + index % (sizes.max_nodes - sizes.min_nodes + 1)
    names = [_const(i + 1) for i in range(nodes)]
    edges = set()
    target = min(sizes.out_degree * nodes, nodes * (nodes - 1))
    while len(edges) < target:
        a, b = rng.sample(names, 2)
        edges.add((a, b))
    # The same-generation tree spans half the nodes: its naive stage
    # product up x SG x down grows with the cube of the tree size.
    tree = names[: max(4, nodes // 2)]
    parent = {tree[i]: tree[rng.randrange(i)] for i in range(1, len(tree))}
    return {
        "E": sorted(edges),
        "S": [(rng.choice(names),)],
        "up": [(child, par) for child, par in parent.items()],
        "down": [(par, child) for child, par in parent.items()],
        "flat": [(tree[0], tree[0])],
    }


def tenant_databases(seed: int, sizes: Sizes) -> Dict[str, Dict[str, List[Row]]]:
    return {
        f"t{index:03d}": tenant_database(seed, index, sizes)
        for index in range(sizes.tenants)
    }


def build_inputs(workload: str, seed: int, sizes: Sizes):
    """The workload's databases as plain rows (what the oracle sees)."""
    if workload == "recursive":
        return tenant_databases(seed, sizes)
    return term_databases(seed, sizes)


def to_database(rows_by_name: Dict[str, List[Row]]):
    from repro.db.relations import Database, Relation

    return Database.of({
        name: Relation.from_tuples(len(rows[0]) if rows else 2, rows)
        for name, rows in rows_by_name.items()
    })


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def term_plan_exprs() -> Dict[str, object]:
    """The six relational-algebra term plans over R(2), S(2)."""
    from repro.relalg.ast import (
        Base,
        ColumnEqualsColumn,
        ColumnEqualsConst,
        Difference,
        Intersection,
        Product,
        Project,
        Select,
        Union,
    )

    return {
        "filter": Select(Base("R"), ColumnEqualsConst(0, FILTER_CONSTANT)),
        "project": Project(Base("R"), (1, 0)),
        "join": Project(
            Select(Product(Base("R"), Base("S")), ColumnEqualsColumn(1, 2)),
            (0, 3),
        ),
        "union": Union(Project(Base("R"), (1, 0)), Base("S")),
        "difference": Difference(Base("R"), Base("S")),
        "intersect": Intersection(Base("R"), Base("S")),
    }


def register_plans(catalog, workload: str) -> None:
    """Register the workload's plans (certify + compile happen here)."""
    if workload == "recursive":
        from repro.queries.fixpoint import (
            reachability_query,
            same_generation_query,
            transitive_closure_query,
        )

        catalog.register_query("tc", transitive_closure_query("E"),
                               engine="ra")
        catalog.register_query("reach", reachability_query("S", "E"),
                               engine="ra")
        catalog.register_query("sg", same_generation_query(), engine="ra")
        return
    from repro.queries.language import QueryArity
    from repro.queries.relalg_compile import build_ra_query

    signature = QueryArity((2, 2), 2)
    schema = {"R": 2, "S": 2}
    for name, expr in term_plan_exprs().items():
        catalog.register_query(
            name, build_ra_query(expr, ["R", "S"], schema),
            signature=signature,
        )


def build_catalog(workload: str, databases) -> object:
    """Register every database, then every plan, on a fresh catalog."""
    from repro.service import Catalog

    catalog = Catalog()
    for name, database in databases.items():
        catalog.register_database(name, database)
    register_plans(catalog, workload)
    return catalog


# ---------------------------------------------------------------------------
# Operation streams
# ---------------------------------------------------------------------------

def edge_keys(seed: int, sizes: Sizes) -> List[Tuple[str, str]]:
    """The (plan, db) keys in Zipf rank order (rank 1 first).

    Ranks cycle through the plans in a fixed order and the seed orders
    the databases: the plans' answers differ in size by 100x, so a
    seeded plan ranking would move the response mix from seed to seed.
    """
    databases = [f"db{index}" for index in range(sizes.databases)]
    _rng(seed, "zipf-ranks").shuffle(databases)
    return [(plan, db) for db in databases for plan in TERM_PLANS]


def edge_stream(seed: int, sizes: Sizes, connection: int
                ) -> Iterator[Tuple[str, str]]:
    """One connection's reads: a sweep over every key (so the warm-up
    prefix fills the cache), then Zipf(s=1) draws."""
    keys = edge_keys(seed, sizes)
    rng = _rng(seed, "edge", connection)
    sweep = list(keys)
    rng.shuffle(sweep)
    yield from sweep
    weights = list(itertools.accumulate(
        1.0 / rank for rank in range(1, len(keys) + 1)
    ))
    while True:
        yield rng.choices(keys, cum_weights=weights)[0]


class Read:
    __slots__ = ("plan", "db")
    kind = "read"

    def __init__(self, plan: str, db: str) -> None:
        self.plan = plan
        self.db = db


class Update:
    """Replace relation ``rel`` of ``db`` by ``rows``: the old contents
    with ``deleted`` dropped and ``inserted`` appended."""

    __slots__ = ("db", "rel", "deleted", "inserted", "rows")
    kind = "update"

    def __init__(self, db: str, rel: str, deleted: Row, inserted: Row,
                 rows: Tuple[Row, ...]) -> None:
        self.db = db
        self.rel = rel
        self.deleted = deleted
        self.inserted = inserted
        self.rows = rows


def churn_stream(seed: int, sizes: Sizes, inputs) -> Iterator[object]:
    """Reads of (plan, db) uniform; every third operation an update.

    The stream tracks the database contents itself so it can pick a
    present tuple to delete and an absent one to insert; ``inputs`` is
    not mutated.
    """
    rng = _rng(seed, "churn")
    current = {db: {rel: list(rows) for rel, rows in rels.items()}
               for db, rels in inputs.items()}
    present = {db: {rel: set(rows) for rel, rows in rels.items()}
               for db, rels in inputs.items()}
    names = sorted(current)
    for index in itertools.count():
        if index % 3 == 2:
            db = rng.choice(names)
            rel = rng.choice(("R", "S"))
            rows = current[db][rel]
            deleted = rows.pop(rng.randrange(len(rows)))
            present[db][rel].discard(deleted)
            while True:
                inserted = (_const(rng.randint(1, sizes.tuples)),
                            _const(rng.randint(1, sizes.tuples)))
                if inserted not in present[db][rel]:
                    break
            rows.append(inserted)
            present[db][rel].add(inserted)
            yield Update(db, rel, deleted, inserted, tuple(rows))
        else:
            yield Read(rng.choice(TERM_PLANS), rng.choice(names))


def recursive_stream(seed: int, sizes: Sizes) -> Iterator[Read]:
    """Uniform (plan, tenant) reads.  Each run of three reads covers the
    three plans once, in random order: their costs differ by 10x, so a
    random mix would move the median from seed to seed."""
    rng = _rng(seed, "recursive")
    plans = list(FIXPOINT_PLANS)
    while True:
        rng.shuffle(plans)
        for plan in plans:
            yield Read(plan, f"t{rng.randrange(sizes.tenants):03d}")


def stream(workload: str, seed: int, sizes: Sizes, inputs) -> Iterator[object]:
    """The single-client operation stream of an in-process workload."""
    if workload == "recursive":
        return recursive_stream(seed, sizes)
    return churn_stream(seed, sizes, inputs)


def take(iterator: Iterator, count: int) -> list:
    return list(itertools.islice(iterator, count))


def check_workload(name: str) -> str:
    if name not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of {WORKLOADS}"
        )
    return name
