"""The benchmark's independent oracle: every answer, recomputed on sets.

Plain Python set code for the six term plans and the three fixpoint
queries.  It imports nothing from ``repro``: the ``"ra"`` engine's
fixpoint calls :mod:`repro.relalg`, and the semi-naive work planned for
it reuses :mod:`repro.datalog`, so an oracle built on either would share
the code it is meant to check.

Answers are compared as sets through :func:`digest`, which the benchmark
records while timing and replays against the oracle afterwards.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

Row = Tuple[str, ...]


def digest(rows: Iterable[Row]) -> int:
    """An order-independent digest of a set of tuples (valid within one
    process: string hashing is salted per process)."""
    return hash(frozenset(rows))


def term_answer(plan: str, r_rows: Iterable[Row], s_rows: Iterable[Row],
                filter_constant: str) -> FrozenSet[Row]:
    r = set(r_rows)
    s = set(s_rows)
    if plan == "filter":
        return frozenset(row for row in r if row[0] == filter_constant)
    if plan == "project":
        return frozenset((b, a) for a, b in r)
    if plan == "join":
        s_by_first: Dict[str, List[str]] = defaultdict(list)
        for b, c in s:
            s_by_first[b].append(c)
        return frozenset((a, c) for a, b in r for c in s_by_first.get(b, ()))
    if plan == "union":
        return frozenset({(b, a) for a, b in r} | s)
    if plan == "difference":
        return frozenset(r - s)
    if plan == "intersect":
        return frozenset(r & s)
    raise ValueError(f"unknown term plan {plan!r}")


def _successors(edges: Iterable[Row]) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = defaultdict(set)
    for a, b in edges:
        out[a].add(b)
    return out


def _reachable(start: Iterable[str], successors: Dict[str, Set[str]]
               ) -> Set[str]:
    seen: Set[str] = set()
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        for nxt in successors.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def transitive_closure(edges: Iterable[Row]) -> FrozenSet[Row]:
    """Pairs (x, y) joined by a path of one or more edges."""
    successors = _successors(edges)
    return frozenset(
        (node, target)
        for node in list(successors)
        for target in _reachable([node], successors)
    )


def reachability(sources: Iterable[Row], edges: Iterable[Row]
                 ) -> FrozenSet[Row]:
    """Sources plus every node reachable from one."""
    start = {row[0] for row in sources}
    return frozenset((node,) for node in start | _reachable(start, _successors(edges)))


def same_generation(flat: Iterable[Row], up: Iterable[Row],
                    down: Iterable[Row]) -> FrozenSet[Row]:
    """Least SG with flat(x,y) -> SG(x,y) and
    up(x,x'), SG(x',y'), down(y',y) -> SG(x,y)."""
    children_up: Dict[str, List[str]] = defaultdict(list)  # x' -> [x]
    for x, parent in up:
        children_up[parent].append(x)
    children_down = _successors(down)  # y' -> {y}
    answer: Set[Row] = set(flat)
    frontier = list(answer)
    while frontier:
        x_parent, y_parent = frontier.pop()
        for x in children_up.get(x_parent, ()):
            for y in children_down.get(y_parent, ()):
                if (x, y) not in answer:
                    answer.add((x, y))
                    frontier.append((x, y))
    return frozenset(answer)


def fixpoint_answer(plan: str, tenant: Dict[str, List[Row]]
                    ) -> FrozenSet[Row]:
    if plan == "tc":
        return transitive_closure(tenant["E"])
    if plan == "reach":
        return reachability(tenant["S"], tenant["E"])
    if plan == "sg":
        return same_generation(tenant["flat"], tenant["up"], tenant["down"])
    raise ValueError(f"unknown fixpoint plan {plan!r}")
