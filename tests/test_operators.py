"""Tests for the Section 4 / Appendix operator terms against the baseline
relational-algebra engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.decode import decode_relation
from repro.db.encode import encode_relation
from repro.db.generators import constant_universe, random_relation
from repro.lam.combinators import boolean_value
from repro.lam.nbe import nbe_normalize
from repro.lam.reduce import normalize
from repro.lam.terms import Const, EqConst, Var, app, term_size
from repro.queries import operators as ops
from repro.queries.language import QueryArity, recognize_tli
from repro.relalg.ast import (
    ColumnEqualsColumn,
    ColumnEqualsConst,
    CondAnd,
    CondNot,
    CondOr,
    CondTrue,
)
from repro.types.infer import infer


def reduce_to_relation(term, arity):
    return decode_relation(nbe_normalize(term), arity).relation


def consts(*names):
    return [Const(n) for n in names]


class TestEqualAndMember:
    @given(
        st.lists(st.sampled_from(constant_universe(3)), min_size=2, max_size=2),
        st.lists(st.sampled_from(constant_universe(3)), min_size=2, max_size=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_equal_k(self, xs, ys):
        term = app(ops.equal_term(2), *consts(*xs), *consts(*ys))
        assert boolean_value(normalize(term).term) == (xs == ys)

    def test_equal_zero_arity(self):
        # Empty tuples are always equal.
        assert boolean_value(normalize(ops.equal_term(0)).term) is True

    def test_member(self):
        rel = random_relation(2, 4, seed=3)
        encoded = encode_relation(rel)
        inside = rel.tuples[0]
        outside = ("o9", "o9")
        for row, expected in ((inside, True), (outside, False)):
            term = app(ops.member_term(2), *consts(*row), encoded)
            assert boolean_value(normalize(term).term) is expected

    def test_member_of_empty(self):
        from repro.db.relations import Relation

        term = app(
            ops.member_term(1),
            Const("o1"),
            encode_relation(Relation.empty(1)),
        )
        assert boolean_value(normalize(term).term) is False


class TestOrderTerm:
    def test_weak_order_semantics(self):
        from repro.db.relations import Relation

        rel = Relation.from_tuples(1, [("o1",), ("o2",)])
        encoded = encode_relation(rel)

        def order_of(x, y):
            term = app(
                ops.order_term(1), Const(x), Const(y), encoded
            )
            return boolean_value(normalize(term).term)

        assert order_of("o1", "o2") is True
        assert order_of("o2", "o1") is False
        assert order_of("o1", "o1") is True   # first match wins
        assert order_of("o9", "o1") is False  # absent left
        assert order_of("o9", "o8") is False  # both absent


class TestSetOperators:
    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_intersection_union_difference(self, n, m, seed):
        universe = constant_universe(3)
        left = random_relation(2, n, universe, seed=seed)
        right = random_relation(2, m, universe, seed=seed + 1)
        el, er = encode_relation(left), encode_relation(right)
        inter = reduce_to_relation(
            app(ops.intersection_term(2), el, er), 2
        )
        assert inter.as_set() == left.as_set() & right.as_set()
        union = reduce_to_relation(app(ops.union_term(2), el, er), 2)
        assert union.as_set() == left.as_set() | right.as_set()
        diff = reduce_to_relation(
            app(ops.difference_term(2), el, er), 2
        )
        assert diff.as_set() == left.as_set() - right.as_set()

    def test_intersection_preserves_left_order(self):
        from repro.db.relations import Relation

        left = Relation.from_tuples(1, [("o3",), ("o1",), ("o2",)])
        right = Relation.from_tuples(1, [("o2",), ("o3",)])
        result = reduce_to_relation(
            app(
                ops.intersection_term(1),
                encode_relation(left),
                encode_relation(right),
            ),
            1,
        )
        assert result.tuples == (("o3",), ("o2",))


class TestProductProjectSelect:
    def test_product(self):
        left = random_relation(1, 3, seed=4)
        right = random_relation(2, 2, seed=5)
        result = reduce_to_relation(
            app(
                ops.product_term(1, 2),
                encode_relation(left),
                encode_relation(right),
            ),
            3,
        )
        assert result.as_set() == {
            a + b for a in left.tuples for b in right.tuples
        }

    def test_projection_reorders_and_duplicates(self):
        from repro.db.relations import Relation

        rel = Relation.from_tuples(2, [("o1", "o2")])
        result = reduce_to_relation(
            app(ops.project_term(2, [1, 1, 0]), encode_relation(rel)),
            3,
        )
        assert result.tuples == (("o2", "o2", "o1"),)

    def test_projection_out_of_range(self):
        from repro.errors import QueryTermError

        with pytest.raises(QueryTermError):
            ops.project_term(2, [2])

    @pytest.mark.parametrize(
        "condition, predicate",
        [
            (CondTrue(), lambda r: True),
            (ColumnEqualsColumn(0, 1), lambda r: r[0] == r[1]),
            (ColumnEqualsConst(0, "o1"), lambda r: r[0] == "o1"),
            (
                CondAnd(
                    ColumnEqualsConst(0, "o1"),
                    ColumnEqualsColumn(0, 1),
                ),
                lambda r: r[0] == "o1" and r[0] == r[1],
            ),
            (
                CondOr(
                    ColumnEqualsConst(0, "o2"),
                    ColumnEqualsConst(1, "o1"),
                ),
                lambda r: r[0] == "o2" or r[1] == "o1",
            ),
            (
                CondNot(ColumnEqualsColumn(0, 1)),
                lambda r: r[0] != r[1],
            ),
        ],
    )
    def test_selection(self, condition, predicate):
        rel = random_relation(2, 6, constant_universe(3), seed=6)
        result = reduce_to_relation(
            app(ops.select_term(2, condition), encode_relation(rel)), 2
        )
        assert result.as_set() == {
            r for r in rel.tuples if predicate(r)
        }


def holds(condition, row):
    """Reference semantics of a selection condition on one row."""
    if isinstance(condition, CondTrue):
        return True
    if isinstance(condition, ColumnEqualsColumn):
        return row[condition.left] == row[condition.right]
    if isinstance(condition, ColumnEqualsConst):
        return row[condition.column] == condition.constant
    if isinstance(condition, CondAnd):
        return holds(condition.left, row) and holds(condition.right, row)
    if isinstance(condition, CondOr):
        return holds(condition.left, row) or holds(condition.right, row)
    return not holds(condition.inner, row)


class TestConditionCompilation:
    def test_condition_without_repeated_tests_is_plain_chaining(self):
        # (#0 = o1 or #1 = o2) and not #0 = #1, chained by hand: the
        # conjunction's second test sits below both exits of the first.
        condition = CondAnd(
            CondOr(ColumnEqualsConst(0, "o1"), ColumnEqualsConst(1, "o2")),
            CondNot(ColumnEqualsColumn(0, 1)),
        )
        x1, x2, keep, skip = Var("x1"), Var("x2"), Var("keep"), Var("skip")
        differ = app(EqConst(), x1, x2, skip, keep)
        expected = app(
            EqConst(),
            x1,
            Const("o1"),
            differ,
            app(EqConst(), x2, Const("o2"), differ, skip),
        )
        compiled = ops.compile_condition(condition, [x1, x2], keep, skip)
        assert compiled == expected

    def test_repeated_tests_are_decided_once_per_path(self):
        # Two tests, each repeated at every one of 40 levels.  Plain
        # chaining copies both continuations below every test, so its
        # term grows like the Fibonacci numbers with the depth; a test
        # already decided on the path is not emitted again.
        first = ColumnEqualsConst(0, "o1")
        second = ColumnEqualsColumn(1, 0)  # the same test as #0 = #1
        condition = ColumnEqualsColumn(0, 1)
        for depth in range(40):
            if depth % 2:
                condition = CondOr(
                    CondAnd(condition, second), CondNot(first)
                )
            else:
                condition = CondAnd(CondOr(second, condition), first)
        x1, x2, keep, skip = Var("x1"), Var("x2"), Var("keep"), Var("skip")
        compiled = ops.compile_condition(condition, [x1, x2], keep, skip)
        # Two tests decide every path: at most three ``Eq a b`` spines of
        # seven nodes each, above four leaves.
        assert term_size(compiled) <= 3 * 7 + 4
        rel = random_relation(2, 9, constant_universe(3), seed=8)
        result = reduce_to_relation(
            app(ops.select_term(2, condition), encode_relation(rel)), 2
        )
        assert result.as_set() == {
            row for row in rel.tuples if holds(condition, row)
        }


class TestDistinctVariants:
    def test_distinct_projection_emits_each_value_once(self):
        from repro.db.relations import Relation

        rel = Relation.from_tuples(
            2, [("o1", "o2"), ("o1", "o3"), ("o2", "o1")]
        )
        result = decode_relation(
            nbe_normalize(
                app(
                    ops.distinct_projection_term(2, 0),
                    encode_relation(rel),
                )
            ),
            1,
        )
        assert not result.had_duplicates
        assert result.relation.tuples == (("o1",), ("o2",))

    def test_distinct_union(self):
        from repro.db.relations import Relation

        left = Relation.from_tuples(1, [("o1",), ("o2",)])
        right = Relation.from_tuples(1, [("o2",), ("o3",)])
        result = decode_relation(
            nbe_normalize(
                app(
                    ops.distinct_union_term(1),
                    encode_relation(left),
                    encode_relation(right),
                )
            ),
            1,
        )
        assert not result.had_duplicates
        assert result.relation.as_set() == {("o1",), ("o2",), ("o3",)}


class TestPrecedesRelation:
    def test_strict_order_pairs(self):
        from repro.db.relations import Relation

        rel = Relation.from_tuples(1, [("o2",), ("o3",), ("o1",)])
        result = reduce_to_relation(
            app(ops.precedes_relation_term(1), encode_relation(rel)), 2
        )
        assert result.as_set() == {
            ("o2", "o3"),
            ("o2", "o1"),
            ("o3", "o1"),
        }


class TestOperatorTyping:
    @pytest.mark.parametrize(
        "builder, arity_sig",
        [
            (lambda: ops.intersection_term(2), QueryArity((2, 2), 2)),
            (lambda: ops.union_term(2), QueryArity((2, 2), 2)),
            (lambda: ops.difference_term(2), QueryArity((2, 2), 2)),
            (lambda: ops.product_term(1, 2), QueryArity((1, 2), 3)),
            (
                lambda: ops.project_term(2, [0]),
                QueryArity((2,), 1),
            ),
            (
                lambda: ops.precedes_relation_term(1),
                QueryArity((1,), 2),
            ),
            (
                lambda: ops.distinct_projection_term(2, 1),
                QueryArity((2,), 1),
            ),
        ],
    )
    def test_operators_are_tli0_query_terms(self, builder, arity_sig):
        # "By inspection of its type, Intersection_k is a TLI=0 query term"
        # (Section 4) — and so is the rest of the library.
        recognition = recognize_tli(builder(), arity_sig)
        assert recognition.derivation_order <= 3

    def test_operators_are_simply_typable(self):
        for term in (
            ops.equal_term(3),
            ops.member_term(2),
            ops.order_term(2),
            ops.select_term(2, ColumnEqualsColumn(0, 1)),
        ):
            assert infer(term) is not None
