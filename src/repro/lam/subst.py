"""Capture-avoiding substitution and bound-variable renaming.

Implements ``E[x := E']`` — "E with E' substituted for all free occurrences
of x in E" (Section 2.1) — with the standard capture-avoidance discipline:
binders whose variable occurs free in the payload (or equals the substituted
variable) are alpha-renamed on the way down.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, Set, Tuple

from repro.lam.terms import (
    Abs,
    App,
    Const,
    EqConst,
    Let,
    Term,
    Var,
    free_vars,
)
from repro.naming import NameSupply

FreeVars = Callable[[Term], FrozenSet[str]]


def substitute(term: Term, var: str, payload: Term) -> Term:
    """Return ``term[var := payload]`` avoiding variable capture."""
    return substitute_many(term, {var: payload})


def substitute_many(term: Term, bindings: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of several variables.

    Simultaneity matters: ``substitute_many(t, {x: y, y: x})`` swaps the two
    variables, which sequential substitution cannot express.
    """
    live = {
        name: payload
        for name, payload in bindings.items()
        if payload != Var(name)
    }
    if not live:
        return term
    fv = _memo_free_vars()
    supply = NameSupply(fv(term) | _binder_names(term))
    for payload in live.values():
        supply.avoid(fv(payload))
    return _subst(term, live, supply, fv)


def _memo_free_vars() -> FreeVars:
    """:func:`free_vars` memoized by node identity for one substitution,
    so a subterm shared k ways is walked once, not k times.  Each entry
    pins its node: substitution allocates nodes mid-walk, and a freed
    node's ``id`` could otherwise come back on a new one."""
    memo: Dict[int, Tuple[Term, FrozenSet[str]]] = {}

    def fv(term: Term) -> FrozenSet[str]:
        entry = memo.get(id(term))
        if entry is not None:
            return entry[1]
        if isinstance(term, Var):
            names = frozenset((term.name,))
        elif isinstance(term, (Const, EqConst)):
            names = frozenset()
        elif isinstance(term, Abs):
            names = fv(term.body) - {term.var}
        elif isinstance(term, App):
            names = fv(term.fn) | fv(term.arg)
        elif isinstance(term, Let):
            names = fv(term.bound) | (fv(term.body) - {term.var})
        else:
            raise TypeError(f"not a term: {term!r}")
        memo[id(term)] = (term, names)
        return names

    return fv


def _binder_names(term: Term) -> Set[str]:
    """The variables bound anywhere in ``term``, one visit per distinct
    node."""
    names: Set[str] = set()
    seen: Set[int] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Abs):
            names.add(node.var)
            stack.append(node.body)
        elif isinstance(node, App):
            stack += (node.fn, node.arg)
        elif isinstance(node, Let):
            names.add(node.var)
            stack += (node.bound, node.body)
    return names


def _subst(
    term: Term, bindings: Dict[str, Term], supply: NameSupply, fv: FreeVars
) -> Term:
    if isinstance(term, Var):
        return bindings.get(term.name, term)
    if isinstance(term, (Const, EqConst)):
        return term
    if not (fv(term) & bindings.keys()):
        return term
    if isinstance(term, App):
        return App(
            _subst(term.fn, bindings, supply, fv),
            _subst(term.arg, bindings, supply, fv),
        )
    if isinstance(term, Abs):
        var, body, live = _enter_binder(
            term.var, term.body, bindings, supply, fv
        )
        return Abs(var, _subst(body, live, supply, fv), term.annotation)
    if isinstance(term, Let):
        bound = _subst(term.bound, bindings, supply, fv)
        var, body, live = _enter_binder(
            term.var, term.body, bindings, supply, fv
        )
        return Let(var, bound, _subst(body, live, supply, fv))
    raise TypeError(f"not a term: {term!r}")


def _enter_binder(
    var: str,
    body: Term,
    bindings: Dict[str, Term],
    supply: NameSupply,
    fv: FreeVars,
) -> Tuple[str, Term, Dict[str, Term]]:
    """Prepare to substitute under a binder for ``var``.

    Drops the binding shadowed by ``var`` and renames ``var`` when it would
    capture a free variable of a payload that is actually about to be
    substituted into ``body``.  Returns the (possibly renamed) binder, the
    (possibly renamed) body, and the bindings still live under the binder.
    """
    body_free = fv(body)
    live = {
        name: payload
        for name, payload in bindings.items()
        if name != var and name in body_free
    }
    captured = any(var in fv(payload) for payload in live.values())
    if captured:
        fresh = supply.fresh(var)
        body = _subst(body, {var: Var(fresh)}, supply, fv)
        var = fresh
    return var, body, live


def rename_bound(term: Term, avoid=()) -> Term:
    """Alpha-rename so that every binder in ``term`` is distinct and disjoint
    from ``avoid`` and from the free variables of ``term`` (Barendregt
    convention).  Useful before analyses that track variables by name.
    """
    supply = NameSupply(free_vars(term))
    supply.avoid(avoid)

    def walk(node: Term, renaming: Dict[str, str]) -> Term:
        if isinstance(node, Var):
            return Var(renaming.get(node.name, node.name))
        if isinstance(node, (Const, EqConst)):
            return node
        if isinstance(node, App):
            return App(walk(node.fn, renaming), walk(node.arg, renaming))
        if isinstance(node, Abs):
            fresh = supply.fresh(node.var)
            inner = dict(renaming)
            inner[node.var] = fresh
            return Abs(fresh, walk(node.body, inner), node.annotation)
        if isinstance(node, Let):
            bound = walk(node.bound, renaming)
            fresh = supply.fresh(node.var)
            inner = dict(renaming)
            inner[node.var] = fresh
            return Let(fresh, bound, walk(node.body, inner))
        raise TypeError(f"not a term: {node!r}")

    return walk(term, {})
