"""Fixpoint queries as TLI=1 / MLI=1 terms (Section 4, Theorem 4.2).

A fixpoint query iterates a TLI=0-expressible step ``M`` (a relational
algebra expression over the inputs R1..Rl and the fixpoint variable) from
the empty relation, polynomially many times.  Following the paper:

* **Intermediate representation.**  Stages are passed as *characteristic
  functions* ``Phi = o -> ... -> o -> Bool`` (order 1), because TLI=1
  iterations may pass only order-1 objects.  ``ListToFunc`` and
  ``FuncToList`` translate between list and characteristic-function form;
  ``FuncToList`` enumerates the active domain ``D``.
* **Crank.**  A sufficiently long iterator: the ``k``-fold product
  ``D x ... x D`` used as a Church-numeral-like engine that applies the
  step ``|D|^k`` times (a monotone/inflationary fixpoint over ``k``-ary
  relations converges within ``|D|^k`` stages).
* **Typing.**  Inside the step and the list<->function converters the
  inputs are iterated with order-0 accumulators; inside the Crank they are
  iterated with accumulator ``Phi`` (order 1).  These typings do not unify,
  so the MLI=1 variant relies on let-polymorphism, while the TLI=1 variant
  inserts the *type-laundering* ``Copy_i`` gadgets: ``(Copy_i R_i)``
  reduces to a copy of ``R_i`` but is typed at ``o^{k_i}_g`` while ``R_i``
  itself is typed with accumulator ``Phi``.

The step is compiled with :mod:`repro.queries.relalg_compile`; use the
reserved name :data:`FIX_NAME` in the step expression to refer to the
current stage.  With ``inflationary=True`` (default) the step is wrapped as
``FIX union M``, so convergence holds for any step (inflationary fixpoint
logic, which captures PTIME on ordered — hence on list-represented —
databases [28, 46]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.db.relations import Database
from repro.errors import QueryTermError, SchemaError
from repro.lam.terms import Abs, Const, Term, Var, app, lam
from repro.queries import operators as ops
from repro.queries.relalg_compile import compile_ra
from repro.relalg.ast import Base, RAExpr, Union

#: The reserved relation name standing for the fixpoint variable in steps.
FIX_NAME = "__FIX__"


def fix() -> Base:
    """The fixpoint variable as an RA base relation."""
    return Base(FIX_NAME)


def _tuple_vars(base: str, count: int) -> list:
    return [f"{base}{i + 1}" for i in range(count)]


# ---------------------------------------------------------------------------
# The Section 4 building blocks
# ---------------------------------------------------------------------------

def list_to_func_term(k: int) -> Term:
    """``ListToFunc : o^k_g -> Phi_k`` (Section 4):

        λR. λx̄. λu. λv. R (λȳ. λT. Equal_k x̄ ȳ u T) v
    """
    xs = _tuple_vars("x", k)
    ys = _tuple_vars("y", k)
    loop = lam(
        ys + ["T"],
        app(
            ops.equal_term(k),
            *[Var(x) for x in xs],
            *[Var(y) for y in ys],
            Var("u"),
            Var("T"),
        ),
    )
    return lam(["R"] + xs + ["u", "v"], app(Var("R"), loop, Var("v")))


def func_to_list_term(k: int, domain_term: Term) -> Term:
    """``FuncToList : Phi_k -> o^k_g`` (Section 4): enumerate ``D^k`` and
    keep the tuples the characteristic function accepts:

        λf. λc. λn.
          D (λx1. λT1. D (λx2. λT2. ... D (λxk. λTk.
              f x̄ (c x̄ Tk) Tk) T_{k-1} ...) T1) n

    ``domain_term`` is the (open) term computing the active-domain list.
    """
    xs = _tuple_vars("x", k)
    x_vars = [Var(x) for x in xs]
    if k == 0:
        # Nullary: the single empty tuple is in iff f accepts it.
        body = app(Var("f"), app(Var("c"), Var("n")), Var("n"))
        return lam(["f", "c", "n"], body)
    accumulators = ["n"] + [f"T{i + 1}" for i in range(k)]
    innermost = app(
        Var("f"),
        *x_vars,
        app(Var("c"), *x_vars, Var(accumulators[k])),
        Var(accumulators[k]),
    )
    body = innermost
    for level in range(k, 0, -1):
        body = app(
            domain_term,
            lam([xs[level - 1], accumulators[level]], body),
            Var(accumulators[level - 1]),
        )
    return lam(["f", "c", "n"], body)


def copy_gadget_term(input_arity: int, pad_arity: int) -> Term:
    """The type-laundering ``Copy`` gadget (Section 4, from [25]).

    ``(Copy R)`` reduces to another encoding of the same relation.  ``R``
    itself is iterated with accumulator type
    ``Phi = o^pad_arity -> g -> g -> g`` (order 1 — the same type the Crank
    uses), while the copy has type ``o^{input_arity}_g``:

        λR. λc. λn.
          R (λx̄. λA. λz̄. λu. λv. c x̄ (A z̄ u v))
            (λz̄. λu. λv. v)
          d̄ n n

    where ``z̄``/``d̄`` are ``pad_arity`` dummy arguments (the dummies are
    the constant ``o1``; they are absorbed and never reach the output).
    """
    xs = _tuple_vars("x", input_arity)
    zs = _tuple_vars("z", pad_arity)
    step = lam(
        xs + ["A"] + zs + ["u", "v"],
        app(
            Var("c"),
            *[Var(x) for x in xs],
            app(Var("A"), *[Var(z) for z in zs], Var("u"), Var("v")),
        ),
    )
    start = lam(zs + ["u", "v"], Var("v"))
    dummies = [Const("o1")] * pad_arity
    body = app(
        app(Var("R"), step, start), *dummies, Var("n"), Var("n")
    )
    return lam(["R", "c", "n"], body)


def crank_term(k: int, domain_term: Term) -> Term:
    """The ``Crank`` iterator (Section 4): applies its first argument
    ``|D|^k`` times to its second, by iterating the ``k``-fold product
    ``D x ... x D`` while absorbing the tuple components:

        λs. λz. (D x ... x D) (λw1...wk. λT. s T) z

    ``domain_term`` computes ``D`` from the (raw) inputs.  For ``k = 0``
    the product is the one-tuple list, giving a single application.
    """
    if k == 0:
        product: Term = lam(["c", "n"], app(Var("c"), Var("n")))
    else:
        product = domain_term
        for width in range(1, k):
            # Widen left-by-one: D x (D^width) has arity width + 1.
            product = app(ops.product_term(1, width), domain_term, product)
    ws = _tuple_vars("w", k)
    step = lam(ws + ["T"], app(Var("s"), Var("T")))
    return lam(["s", "z"], app(product, step, Var("z")))


def empty_characteristic_term(k: int) -> Term:
    """``λx̄. False`` — the characteristic function of the empty relation."""
    xs = _tuple_vars("x", k)
    return lam(xs + ["u", "v"], Var("v"))


# ---------------------------------------------------------------------------
# Whole-query assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixpointQuery:
    """A fixpoint query specification.

    ``step`` is an RA expression over the input names and :data:`FIX_NAME`;
    ``output_arity`` is the arity of the fixpoint relation.  With
    ``inflationary=True`` the effective step is ``FIX union step``.
    """

    step: RAExpr
    output_arity: int
    input_schema: Tuple[Tuple[str, int], ...]
    inflationary: bool = True

    @staticmethod
    def of(
        step: RAExpr,
        output_arity: int,
        input_schema: Mapping[str, int],
        inflationary: bool = True,
    ) -> "FixpointQuery":
        return FixpointQuery(
            step, output_arity, tuple(input_schema.items()), inflationary
        )

    def schema(self) -> Dict[str, int]:
        return dict(self.input_schema)

    def effective_step(self) -> RAExpr:
        if self.inflationary:
            return Union(fix(), self.step)
        return self.step

    def input_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.input_schema)

    def input_database(self, database: Database) -> Database:
        """``database`` restricted to the input relations, in schema order.

        The compiled tower binds exactly these relations, and the crank
        and the active domain range over them.  A missing input, or one
        at the wrong arity, raises a TLI024 :class:`SchemaError`.
        """
        problems = []
        for name, arity in self.input_schema:
            if name not in database:
                problems.append(f"input relation {name!r} is missing")
            elif database[name].arity != arity:
                problems.append(
                    f"input {name!r} expects arity {arity}, database "
                    f"has arity {database[name].arity}"
                )
        if problems:
            raise SchemaError(
                "[TLI024] fixpoint query does not fit the database schema: "
                + "; ".join(problems)
            )
        return Database(
            tuple((name, database[name]) for name, _ in self.input_schema)
        )


def _adom_term(schema: Mapping[str, int], var_of, distinct: bool = True) -> Term:
    """Active-domain list over the *input* relations only.

    ``distinct=False`` selects the plain projection/union operators: the
    duplicate-suppressing variants branch on ``Eq``, whose branches have
    type ``g``, so they only type at order-0 accumulators — inside the
    Crank the domain is iterated at accumulator ``Phi`` (order 1) and must
    be built Eq-free (the duplicates merely pad the Crank's length, which
    stays polynomial)."""
    from repro.queries.relalg_compile import active_domain_expr_term

    return active_domain_expr_term(schema, var_of, distinct=distinct)


def build_fixpoint_query(query: FixpointQuery, style: str = "tli") -> Term:
    """Compile a fixpoint query to a TLI=1 (``style="tli"``) or MLI=1
    (``style="mli"``) query term ``λR1 ... λRl. ...`` (Theorem 4.2).

    The two styles produce the same relation on every input; they differ
    only in the typing devices (Copy gadgets vs let-polymorphism).
    """
    if style not in ("tli", "mli"):
        raise QueryTermError(f"unknown style {style!r}")
    schema = query.schema()
    names = list(query.input_names())
    k = query.output_arity
    step_expr = query.effective_step()
    step_schema = dict(schema)
    step_schema[FIX_NAME] = k

    if style == "tli":
        # Occurrences inside the step / converters use (Copy_i R_i); the
        # Crank and the Copy gadgets themselves use the raw R_i.
        def laundered(name: str) -> Term:
            return app(copy_gadget_term(schema[name], k), Var(name))
    else:
        def laundered(name: str) -> Term:
            return Var(name)

    fix_var = Var("FIXSTAGE")
    step_variables: Dict[str, Term] = {
        name: laundered(name) for name in names
    }
    step_variables[FIX_NAME] = fix_var
    step_body = compile_ra(step_expr, step_schema, step_variables)
    step_fn = Abs("FIXSTAGE", step_body)

    # Converters: the domain inside FuncToList uses laundered inputs.
    domain_for_converters = _adom_term(
        schema, lambda name: laundered(name)
    )
    func_to_list = func_to_list_term(k, domain_for_converters)
    list_to_func = list_to_func_term(k)

    # Crank: the domain here uses the raw inputs (accumulator Phi), built
    # from the Eq-free operator variants (see _adom_term).
    domain_for_crank = _adom_term(
        schema, lambda name: Var(name), distinct=False
    )
    crank = crank_term(k, domain_for_crank)

    one_stage = lam(
        ["f"],
        app(list_to_func, app(step_fn, app(func_to_list, Var("f")))),
    )
    cranked = app(crank, one_stage, empty_characteristic_term(k))
    body = app(func_to_list, cranked)
    return lam(names, body)


def transitive_closure_query(edge_name: str = "E") -> FixpointQuery:
    """The canonical PTIME-complete example: transitive closure of a binary
    relation.  Step: ``TC(x, y) <- E(x, y)  |  E(x, z), TC(z, y)``."""
    from repro.relalg.ast import ColumnEqualsColumn, Product, Project, Select

    edge = Base(edge_name)
    join = Project(
        Select(Product(edge, fix()), ColumnEqualsColumn(1, 2)),
        (0, 3),
    )
    step = Union(edge, join)
    return FixpointQuery.of(step, 2, {edge_name: 2}, inflationary=True)


def reachability_query(
    source_name: str = "S", edge_name: str = "E"
) -> FixpointQuery:
    """Single-source reachability:
    ``R(x) <- S(x)  |  R(y), E(y, x)`` — the query the paper's introduction
    motivates as not first-order expressible."""
    from repro.relalg.ast import ColumnEqualsColumn, Product, Project, Select

    frontier = Project(
        Select(
            Product(fix(), Base(edge_name)), ColumnEqualsColumn(0, 1)
        ),
        (2,),
    )
    step = Union(Base(source_name), frontier)
    return FixpointQuery.of(
        step, 1, {source_name: 1, edge_name: 2}, inflationary=True
    )


def same_generation_query(
    flat_name: str = "flat",
    up_name: str = "up",
    down_name: str = "down",
) -> FixpointQuery:
    """The classical same-generation query:
    ``SG(x, y) <- flat(x, y)  |  up(x, x'), SG(x', y'), down(y', y)``."""
    from repro.relalg.ast import ColumnEqualsColumn, Product, Project, Select

    # Columns of up x (SG x down): (x, x', x'', y', y'', y).
    joined = Select(
        Select(
            Product(Base(up_name), Product(fix(), Base(down_name))),
            ColumnEqualsColumn(1, 2),
        ),
        ColumnEqualsColumn(3, 4),
    )
    step = Union(Base(flat_name), Project(joined, (0, 5)))
    return FixpointQuery.of(
        step,
        2,
        {flat_name: 2, up_name: 2, down_name: 2},
        inflationary=True,
    )
