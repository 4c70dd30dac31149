"""Tests for the NBE normalizer: agreement with the small-step engine."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.encode import encode_relation
from repro.db.generators import random_relation
from repro.db.relations import Relation
from repro.lam.alpha import alpha_equal
from repro.lam.combinators import (
    add_term,
    boolean_list,
    church_numeral,
    length_term,
    mul_term,
    numeral_value,
    parity_term,
)
from repro.lam.nbe import nbe_normalize
from repro.lam.parser import parse
from repro.lam.reduce import Strategy, is_normal_form, normalize
from repro.lam.terms import Const, Var, app
from repro.queries.operators import select_term
from repro.relalg.ast import ColumnEqualsConst


class TestAgreementWithSmallStep:
    @pytest.mark.parametrize(
        "source",
        [
            r"(\x. x) o1",
            r"(\x. \y. x) o1 o2",
            r"(\f. f (f o1)) (\x. x)",
            "Eq o1 o1 a b",
            "Eq o1 o2 a b",
            r"let f = \x. x in f f",
            r"\z. (\x. x) z",
            r"(\x. \y. y x) o1 (\w. Eq w o1)",
        ],
    )
    def test_same_normal_form(self, source):
        term = parse(source)
        assert alpha_equal(
            nbe_normalize(term), normalize(term).term
        )

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_arithmetic_agreement(self, m, n):
        term = app(add_term(), church_numeral(m), church_numeral(n))
        assert alpha_equal(
            nbe_normalize(term), normalize(term).term
        )
        term = app(mul_term(), church_numeral(m), church_numeral(n))
        assert numeral_value(nbe_normalize(term)) == m * n

    @given(st.lists(st.booleans(), max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_list_iteration_agreement(self, values):
        for fn in (parity_term(), length_term()):
            term = app(fn, boolean_list(values))
            assert alpha_equal(
                nbe_normalize(term), normalize(term).term
            )


class TestNBEProperties:
    def test_result_is_normal_form(self):
        term = parse(r"(\f. \x. f (f x)) (\y. Eq y o1 o2 o3) o1")
        assert is_normal_form(nbe_normalize(term))

    def test_stuck_terms_preserved(self):
        term = parse("f (Eq x o1) o2")
        assert alpha_equal(nbe_normalize(term), term)

    def test_free_variables_kept(self):
        term = parse(r"(\x. y) o1")
        assert nbe_normalize(term) == Var("y")

    def test_readback_avoids_free_variable_capture(self):
        # A free variable named like a readback binder.
        term = parse(r"(\x. \q. v0 x) o1")
        result = nbe_normalize(term)
        from repro.lam.terms import free_vars

        assert "v0" in free_vars(result)

    def test_delta_under_binder(self):
        term = parse(r"\x. Eq o1 o1 x o2")
        assert alpha_equal(nbe_normalize(term), parse(r"\x. x"))

    def test_sharing_beats_smallstep_on_iterated_lists(self):
        # The same relation folded twice: NBE shares the encoding value.
        rel = random_relation(2, 6, seed=2)
        term = app(
            parse(r"\R. \c. \n. R c (R c n)"), encode_relation(rel)
        )
        assert alpha_equal(
            nbe_normalize(term), normalize(term).term
        )

    def test_lets_are_reduced(self):
        term = parse("let x = o1 in Eq x o1 a b")
        assert nbe_normalize(term) == Var("a")

    def test_eta_is_not_performed(self):
        term = parse(r"\x. f x")
        assert alpha_equal(nbe_normalize(term), term)

    def test_failing_rows_cost_no_host_stack(self):
        # A row that fails the selection hands back its accumulator, which
        # demands the next row.  The evaluator continues into such thunks
        # in its own loop, so 2000 failing rows fit a 3000-frame limit; a
        # recursive force takes several frames per row.
        rel = Relation.from_tuples(
            2, [(f"o{i}", f"o{i + 1}") for i in range(2000)]
        )
        term = app(
            select_term(2, ColumnEqualsConst(0, "none")),
            encode_relation(rel),
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(3000)
        try:
            result = nbe_normalize(term, max_depth=3000)
        finally:
            sys.setrecursionlimit(limit)
        assert alpha_equal(result, parse(r"\c. \n. n"))
