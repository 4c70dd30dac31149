"""Abstract syntax of TLC= / core-ML= terms (Section 2 of the paper).

Terms are immutable and hashable.  Structural equality is *literal* (names
of bound variables matter); use :func:`repro.lam.alpha.alpha_equal` for the
paper's ``=`` (identity up to renaming of bound variables).

The grammar, following Sections 2.1-2.2:

    E ::= x                 variable                          (Var)
        | o_i               atomic constant of type o         (Const)
        | Eq                equality constant                 (EqConst)
        | (E E)             application                       (App)
        | λx. E             abstraction, optionally annotated (Abs)
        | let x = E in E    let abstraction (core-ML=)        (Let)

Annotations on ``Abs`` binders give the "Church style" presentation the
paper uses for readability; the Curry-style reconstruction in
:mod:`repro.types.infer` ignores or checks them as requested.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.lru import BoundedLRU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.types.types import Type


class Term:
    """Base class of all term nodes."""

    __slots__ = ()

    # Concrete subclasses are frozen dataclasses; the base class only hosts
    # shared conveniences.

    def __call__(self, *args: "Term") -> "Term":
        """Sugar: ``f(a, b)`` builds the application spine ``((f a) b)``."""
        return app(self, *args)

    def pretty(self) -> str:
        from repro.lam.pretty import pretty

        return pretty(self)

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True, repr=True, slots=True)
class Var(Term):
    """A term variable."""

    name: str



@dataclass(frozen=True, repr=True, slots=True)
class Const(Term):
    """An atomic constant ``o_i`` of the fixed base type ``o``."""

    name: str



@dataclass(frozen=True, repr=True, slots=True)
class EqConst(Term):
    """The equality constant ``Eq : o -> o -> g -> g -> g``.

    ``Eq o_i o_j`` delta-reduces to the Church boolean ``λx.λy.x`` when
    ``i = j`` and to ``λx.λy.y`` otherwise (Section 2.1).
    """


@dataclass(frozen=True, repr=True, slots=True)
class Abs(Term):
    """Lambda abstraction ``λvar. body`` with optional type annotation."""

    var: str
    body: Term
    annotation: Optional["Type"] = field(default=None, compare=False)



@dataclass(frozen=True, repr=True, slots=True)
class App(Term):
    """Application ``(fn arg)``."""

    fn: Term
    arg: Term



@dataclass(frozen=True, repr=True, slots=True)
class Let(Term):
    """Let abstraction ``let var = bound in body`` (core-ML=, Section 2.2)."""

    var: str
    bound: Term
    body: Term



# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def lam(variables, body: Term, annotations: Sequence["Type"] = ()) -> Term:
    """Build ``λv1. λv2. ... body``.

    ``variables`` is a name, a ``Var``, or a sequence of those.  Optional
    ``annotations`` (parallel to the variables) produce Church-style binders.
    """
    if isinstance(variables, (str, Var)):
        variables = [variables]
    names = [v.name if isinstance(v, Var) else v for v in variables]
    result = body
    padded = list(annotations) + [None] * (len(names) - len(annotations))
    for name, note in zip(reversed(names), reversed(padded)):
        result = Abs(name, result, note)
    return result


def abs_many(names: Sequence[str], body: Term) -> Term:
    """Alias of :func:`lam` restricted to plain name sequences."""
    return lam(list(names), body)


def app(fn: Term, *args: Term) -> Term:
    """Build the left-nested application spine ``(((fn a1) a2) ... an)``."""
    result = fn
    for arg in args:
        result = App(result, arg)
    return result


def let(var, bound: Term, body: Term) -> Term:
    """Build ``let var = bound in body``."""
    name = var.name if isinstance(var, Var) else var
    return Let(name, bound, body)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def free_vars(term: Term) -> FrozenSet[str]:
    """The set of free variable names of ``term``."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, (Const, EqConst)):
        return frozenset()
    if isinstance(term, Abs):
        return free_vars(term.body) - {term.var}
    if isinstance(term, App):
        return free_vars(term.fn) | free_vars(term.arg)
    if isinstance(term, Let):
        return free_vars(term.bound) | (free_vars(term.body) - {term.var})
    raise TypeError(f"not a term: {term!r}")


def bound_vars(term: Term) -> FrozenSet[str]:
    """The set of variable names bound anywhere inside ``term``."""
    if isinstance(term, (Var, Const, EqConst)):
        return frozenset()
    if isinstance(term, Abs):
        return bound_vars(term.body) | {term.var}
    if isinstance(term, App):
        return bound_vars(term.fn) | bound_vars(term.arg)
    if isinstance(term, Let):
        return bound_vars(term.bound) | bound_vars(term.body) | {term.var}
    raise TypeError(f"not a term: {term!r}")


def all_vars(term: Term) -> FrozenSet[str]:
    """Free and bound variable names of ``term``."""
    return free_vars(term) | bound_vars(term)


def subterms(term: Term) -> Iterator[Term]:
    """Yield every subterm of ``term`` (pre-order, including ``term``)."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Abs):
            stack.append(node.body)
        elif isinstance(node, App):
            stack.append(node.arg)
            stack.append(node.fn)
        elif isinstance(node, Let):
            stack.append(node.body)
            stack.append(node.bound)


def term_size(term: Term) -> int:
    """Number of AST nodes in ``term``."""
    return sum(1 for _ in subterms(term))


def constants_of(term: Term) -> FrozenSet[str]:
    """Names of the atomic constants occurring in ``term``."""
    return frozenset(
        node.name for node in subterms(term) if isinstance(node, Const)
    )


def spine(term: Term) -> Tuple[Term, Tuple[Term, ...]]:
    """Decompose ``term`` into head and arguments: ``f M1 ... Ml``.

    Returns ``(f, (M1, ..., Ml))`` with ``f`` not an application.  The paper
    calls ``f`` the *function symbol governing* the ``M_i`` (Section 5.1).
    """
    args = []
    node = term
    while isinstance(node, App):
        args.append(node.arg)
        node = node.fn
    args.reverse()
    return node, tuple(args)


def binder_prefix(term: Term) -> Tuple[Tuple[str, ...], Term]:
    """Strip the maximal prefix of lambda binders: ``λx1...λxk. M``.

    Returns ``((x1, ..., xk), M)`` with ``M`` not an abstraction.
    """
    names = []
    node = term
    while isinstance(node, Abs):
        names.append(node.var)
        node = node.body
    return tuple(names), node


def map_subterms(term: Term, fn: Callable[[Term], Term]) -> Term:
    """Rebuild ``term`` with ``fn`` applied to each immediate child."""
    if isinstance(term, (Var, Const, EqConst)):
        return term
    if isinstance(term, Abs):
        return Abs(term.var, fn(term.body), term.annotation)
    if isinstance(term, App):
        return App(fn(term.fn), fn(term.arg))
    if isinstance(term, Let):
        return Let(term.var, fn(term.bound), fn(term.body))
    raise TypeError(f"not a term: {term!r}")


def expand_lets(term: Term) -> Term:
    """Replace every ``let x = M in N`` by ``N[x := M]`` (Section 5).

    This is the let-elimination step the paper performs on MLI=_i query
    terms before structural analysis: "we can eliminate all let's from Q by
    replacing every subterm of the form let x = N in M with M[x := N]".
    Note the result can be exponentially larger than the input.
    """
    from repro.lam.subst import substitute

    if isinstance(term, Let):
        bound = expand_lets(term.bound)
        body = expand_lets(term.body)
        return substitute(body, term.var, bound)
    return map_subterms(term, expand_lets)


def contains_let(term: Term) -> bool:
    """True iff ``term`` contains a ``let`` node (i.e. is strictly core-ML)."""
    return any(isinstance(node, Let) for node in subterms(term))


# ---------------------------------------------------------------------------
# Structural digests and hash-consing
# ---------------------------------------------------------------------------
#
# The service layer (:mod:`repro.service`) keys plan/result caches on term
# identity.  Structural ``==`` on large terms is O(size) per comparison, so
# cache lookups would dominate; instead terms are keyed by an
# *alpha-invariant* content digest: bound variables are serialized as de
# Bruijn distances, so alpha-variants share a digest (the paper's ``=`` is
# identity up to renaming of bound variables).  The digest of a given term
# *object* is computed once — O(size) — and memoized, so repeated lookups
# are O(1).

#: Memo table ``id(term) -> (term, digest)``.  The strong reference keeps
#: the id stable for the lifetime of the entry; the 8192 most recently used
#: entries are kept.
_DIGEST_CACHE: BoundedLRU[int, Tuple[Term, str]] = BoundedLRU(8192)


def digest(term: Term) -> str:
    """An alpha-invariant SHA-256 content digest of ``term``.

    Computed iteratively (no recursion-depth limit on encoded databases),
    memoized per term object: O(size) the first time, O(1) thereafter.
    Annotations on ``Abs`` binders are ignored, matching structural ``==``.
    Alpha-variants digest equal; structurally different terms digest
    differently (up to SHA-256 collisions).
    """
    cached = _DIGEST_CACHE.get(id(term))
    if cached is not None and cached[0] is term:
        return cached[1]
    parts: List[bytes] = []
    # Scope stack per name: the binder depths currently in scope.
    scopes: Dict[str, List[int]] = {}
    depth = 0
    # Work stack of (op, payload): "term" serializes a node, "bind" opens a
    # binder scope, "pop" closes it.  Pre-order with fixed arities per
    # constructor makes the byte string an injective encoding.
    stack: List[Tuple[str, object]] = [("term", term)]
    while stack:
        op, payload = stack.pop()
        if op == "bind":
            scopes.setdefault(payload, []).append(depth)  # type: ignore[arg-type]
            depth += 1
            continue
        if op == "pop":
            scopes[payload].pop()  # type: ignore[index]
            depth -= 1
            continue
        node = payload
        if isinstance(node, Var):
            levels = scopes.get(node.name)
            if levels:
                # Bound: distance to the binder (de Bruijn index).
                parts.append(b"b%d;" % (depth - 1 - levels[-1]))
            else:
                name = node.name.encode()
                parts.append(b"v%d:%s;" % (len(name), name))
        elif isinstance(node, Const):
            name = node.name.encode()
            parts.append(b"c%d:%s;" % (len(name), name))
        elif isinstance(node, EqConst):
            parts.append(b"q;")
        elif isinstance(node, Abs):
            parts.append(b"L")
            stack.append(("pop", node.var))
            stack.append(("term", node.body))
            stack.append(("bind", node.var))
        elif isinstance(node, App):
            parts.append(b"A")
            stack.append(("term", node.arg))
            stack.append(("term", node.fn))
        elif isinstance(node, Let):
            # ``let x = M in N``: x scopes over N only.
            parts.append(b"T")
            stack.append(("pop", node.var))
            stack.append(("term", node.body))
            stack.append(("bind", node.var))
            stack.append(("term", node.bound))
        else:
            raise TypeError(f"not a term: {node!r}")
    result = hashlib.sha256(b"".join(parts)).hexdigest()
    _DIGEST_CACHE.put(id(term), (term, result))
    return result


#: Hash-consing table: shallow structural key -> canonical node.
_INTERN_TABLE: Dict[tuple, Term] = {}


def intern_term(term: Term) -> Term:
    """Hash-cons ``term``: structurally equal terms map to one shared
    object graph, so later ``is``-checks, ``==``, and :func:`digest` calls
    on interned terms are cheap and maximally shared.

    The rebuild is iterative post-order; each node costs O(1) table work
    (children are keyed by the ``id`` of their canonical representatives,
    which the table keeps alive).  ``Abs`` annotations follow the first
    interned occurrence, consistent with annotations being ignored by
    structural equality.
    """
    done: Dict[int, Term] = {}

    def key_of(node: Term) -> tuple:
        if isinstance(node, Var):
            return ("V", node.name)
        if isinstance(node, Const):
            return ("C", node.name)
        if isinstance(node, EqConst):
            return ("Q",)
        if isinstance(node, Abs):
            return ("L", node.var, id(done[id(node.body)]))
        if isinstance(node, App):
            return ("A", id(done[id(node.fn)]), id(done[id(node.arg)]))
        if isinstance(node, Let):
            return (
                "T",
                node.var,
                id(done[id(node.bound)]),
                id(done[id(node.body)]),
            )
        raise TypeError(f"not a term: {node!r}")

    def rebuild(node: Term) -> Term:
        if isinstance(node, Abs):
            return Abs(node.var, done[id(node.body)], node.annotation)
        if isinstance(node, App):
            return App(done[id(node.fn)], done[id(node.arg)])
        if isinstance(node, Let):
            return Let(node.var, done[id(node.bound)], done[id(node.body)])
        return node

    stack: List[Tuple[Term, bool]] = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if not ready:
            stack.append((node, True))
            if isinstance(node, Abs):
                stack.append((node.body, False))
            elif isinstance(node, App):
                stack.append((node.arg, False))
                stack.append((node.fn, False))
            elif isinstance(node, Let):
                stack.append((node.body, False))
                stack.append((node.bound, False))
            continue
        key = key_of(node)
        canonical = _INTERN_TABLE.get(key)
        if canonical is None:
            canonical = rebuild(node)
            _INTERN_TABLE[key] = canonical
        done[id(node)] = canonical
    return done[id(term)]


def clear_intern_table() -> None:
    """Drop all hash-consed nodes (frees memory; interned terms stay valid)."""
    _INTERN_TABLE.clear()
