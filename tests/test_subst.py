"""Unit and property tests for capture-avoiding substitution."""

import time

from hypothesis import given

from repro.lam.alpha import alpha_equal
from repro.lam.subst import rename_bound, substitute, substitute_many
from repro.lam.terms import (
    Abs,
    App,
    Const,
    Let,
    Var,
    app,
    bound_vars,
    free_vars,
    lam,
)
from tests.conftest import untyped_terms


class TestBasicSubstitution:
    def test_free_occurrence(self):
        assert substitute(Var("x"), "x", Const("o1")) == Const("o1")

    def test_unrelated_variable(self):
        assert substitute(Var("y"), "x", Const("o1")) == Var("y")

    def test_under_binder(self):
        term = Abs("y", Var("x"))
        assert substitute(term, "x", Const("o1")) == Abs("y", Const("o1"))

    def test_shadowed_not_substituted(self):
        term = Abs("x", Var("x"))
        assert substitute(term, "x", Const("o1")) == term

    def test_capture_avoidance(self):
        # (λy. x)[x := y] must NOT become λy. y.
        term = Abs("y", Var("x"))
        result = substitute(term, "x", Var("y"))
        assert isinstance(result, Abs)
        assert result.var != "y"
        assert result.body == Var("y")

    def test_capture_avoidance_deep(self):
        # (λy. λz. x y z)[x := y z]
        term = lam(["y", "z"], app(Var("x"), Var("y"), Var("z")))
        result = substitute(term, "x", app(Var("y"), Var("z")))
        assert free_vars(result) == {"y", "z"}
        # The free y/z of the payload must remain free.
        assert alpha_equal(
            result,
            lam(
                ["a", "b"],
                app(app(Var("y"), Var("z")), Var("a"), Var("b")),
            ),
        )

    def test_let_bound_substitution(self):
        term = Let("y", Var("x"), app(Var("y"), Var("x")))
        result = substitute(term, "x", Const("o1"))
        assert result == Let(
            "y", Const("o1"), app(Var("y"), Const("o1"))
        )

    def test_let_shadowing(self):
        term = Let("x", Var("x"), Var("x"))
        result = substitute(term, "x", Const("o1"))
        # The bound expression's x is free, the body's is bound.
        assert result == Let("x", Const("o1"), Var("x"))

    def test_shared_subterm_is_walked_once(self):
        # 21 distinct nodes, 2^21 - 1 as a tree: capture avoidance reads
        # the free variables of every subterm it enters, and walking the
        # shared subterm as a tree takes seconds.
        shared = Const("o1")
        for _ in range(20):
            shared = App(shared, shared)
        term = Abs("y", App(shared, Var("x")))
        start = time.perf_counter()
        result = substitute(term, "x", Var("y"))
        elapsed = time.perf_counter() - start
        assert result.var == "y0"
        assert result.body.fn is shared and result.body.arg == Var("y")
        assert elapsed < 0.5


class TestSimultaneousSubstitution:
    def test_swap(self):
        term = app(Var("x"), Var("y"))
        result = substitute_many(term, {"x": Var("y"), "y": Var("x")})
        assert result == app(Var("y"), Var("x"))

    def test_sequential_differs_from_simultaneous(self):
        term = app(Var("x"), Var("y"))
        sequential = substitute(
            substitute(term, "x", Var("y")), "y", Var("x")
        )
        simultaneous = substitute_many(
            term, {"x": Var("y"), "y": Var("x")}
        )
        assert sequential != simultaneous

    def test_identity_bindings_are_dropped(self):
        term = Abs("y", Var("x"))
        assert substitute_many(term, {"x": Var("x")}) is term


class TestSubstitutionProperties:
    @given(untyped_terms())
    def test_substituting_fresh_var_changes_nothing(self, term):
        result = substitute(term, "completely_fresh_variable", Const("o1"))
        assert alpha_equal(result, term)

    @given(untyped_terms())
    def test_free_vars_after_substitution(self, term):
        result = substitute(term, "x", Const("o1"))
        assert "x" not in free_vars(result)

    @given(untyped_terms())
    def test_substitution_by_closed_term_never_captures(self, term):
        payload = Abs("w", Const("o2"))
        result = substitute(term, "x", payload)
        assert free_vars(result) == free_vars(term) - {"x"}


class TestRenameBound:
    @given(untyped_terms())
    def test_rename_is_alpha_equal(self, term):
        assert alpha_equal(rename_bound(term), term)

    @given(untyped_terms())
    def test_rename_makes_binders_unique(self, term):
        renamed = rename_bound(term)
        names = []

        def collect(node):
            from repro.lam.terms import Abs, App, Let

            if isinstance(node, Abs):
                names.append(node.var)
                collect(node.body)
            elif isinstance(node, App):
                collect(node.fn)
                collect(node.arg)
            elif isinstance(node, Let):
                names.append(node.var)
                collect(node.bound)
                collect(node.body)

        collect(renamed)
        assert len(names) == len(set(names))

    @given(untyped_terms())
    def test_rename_binders_avoid_free_vars(self, term):
        renamed = rename_bound(term)
        assert not (bound_vars(renamed) & free_vars(renamed))

    def test_rename_avoids_requested_names(self):
        term = Abs("x", Var("x"))
        renamed = rename_bound(term, avoid=["x"])
        assert isinstance(renamed, Abs) and renamed.var != "x"
