"""Unit tests for the predicate IR (:mod:`repro.relational.expr`).

The hypothesis equivalence suite lives in ``test_columnar_oracle.py``;
this file pins the IR's scalar semantics (the oracle itself), the
construction sugar, and the targeted code-space fast paths on exact
examples — per backend.
"""

from __future__ import annotations

import pytest

from repro.core.config import use_engine
from repro.relational import kernels
from repro.relational.encoding import EncodedColumn
from repro.relational.expr import (
    And,
    Arith,
    Cmp,
    Col,
    ExpressionError,
    Lit,
    and_,
    col,
    columns_of,
    eq,
    evaluate_operand,
    evaluate_predicate,
    filter_rows,
    ge,
    gt,
    in_,
    is_null,
    is_predicate,
    lit,
    lt,
    ne,
    not_,
    or_,
)
from repro.relational.relation import Relation


@pytest.fixture(params=kernels.available_backends())
def backend(request):
    """Run each test once per installed kernel backend."""
    with use_engine(backend=request.param):
        yield request.param


@pytest.fixture
def relation():
    return Relation.from_columns(
        "r",
        {
            "name": ["ann", "bob", None, "ann", "eve"],
            "city": ["rome", "oslo", "rome", None, "oslo"],
            "age": [30, None, 25, 30, 41],
        },
    )


# ----------------------------------------------------------------------
# Construction and introspection
# ----------------------------------------------------------------------
class TestConstruction:
    def test_sugar_wraps_plain_values_as_literals(self):
        predicate = eq(col("A"), 3)
        assert predicate == Cmp("=", Col("A"), Lit(3))

    def test_and_or_fold_left(self):
        a, b, c = eq(col("A"), 1), eq(col("B"), 2), eq(col("C"), 3)
        assert and_(a, b, c) == And(And(a, b), c)

    def test_columns_of_first_seen_order(self):
        predicate = or_(
            eq(col("B"), col("A")), and_(is_null(col("C")), gt(col("A"), 1))
        )
        assert columns_of(predicate) == ("B", "A", "C")

    def test_is_predicate(self):
        assert is_predicate(eq(col("A"), 1))
        assert is_predicate(not_(is_null(col("A"))))
        assert not is_predicate(col("A"))
        assert not is_predicate(lit(True))
        assert not is_predicate(lambda row: True)


# ----------------------------------------------------------------------
# Scalar semantics (the oracle)
# ----------------------------------------------------------------------
class TestScalarSemantics:
    def test_null_never_satisfies_comparisons(self):
        row = {"A": None, "B": 2}
        for predicate in (
            eq(col("A"), col("B")),
            ne(col("A"), col("B")),
            lt(col("A"), 5),
            ge(col("A"), 5),
            eq(col("A"), None),
            eq(lit(None), lit(None)),
        ):
            assert evaluate_predicate(predicate, row) is False

    def test_not_flips_null_comparisons(self):
        # Two-valued logic: NOT over a NULL comparison is *true*,
        # matching the SQL layer's historical row-dict interpreter.
        assert evaluate_predicate(not_(eq(col("A"), 3)), {"A": None}) is True

    def test_is_null(self):
        assert evaluate_predicate(is_null(col("A")), {"A": None}) is True
        assert evaluate_predicate(is_null(col("A")), {"A": 0}) is False
        assert evaluate_predicate(is_null(col("A"), negated=True), {"A": 0}) is True

    def test_in_list_null_semantics(self):
        predicate = in_(col("A"), [1, None, 3])
        assert evaluate_predicate(predicate, {"A": 1}) is True
        assert evaluate_predicate(predicate, {"A": 2}) is False
        # NULL on either side never matches.
        assert evaluate_predicate(predicate, {"A": None}) is False

    def test_arithmetic_propagates_null(self):
        operand = Arith("+", Col("A"), Lit(5))
        assert evaluate_operand(operand, {"A": None}) is None
        assert evaluate_operand(operand, {"A": 2}) == 7
        assert evaluate_predicate(gt(operand, 6), {"A": 2}) is True
        assert evaluate_predicate(gt(operand, 6), {"A": None}) is False

    def test_arithmetic_errors(self):
        with pytest.raises(ExpressionError):
            evaluate_operand(Arith("/", Lit(1), Lit(0)), {})
        with pytest.raises(ExpressionError):
            evaluate_operand(Arith("-", Lit("x"), Lit(1)), {})

    def test_incomparable_order_comparison_raises(self):
        with pytest.raises(ExpressionError):
            evaluate_predicate(lt(col("A"), 3), {"A": "text"})

    def test_unknown_column_raises(self):
        with pytest.raises(ExpressionError):
            evaluate_predicate(eq(col("missing"), 1), {"A": 1})


# ----------------------------------------------------------------------
# Columnar evaluation fast paths
# ----------------------------------------------------------------------
class TestFilterRows:
    def test_equality_resolves_in_code_space(self, relation, backend):
        assert list(filter_rows(relation, eq(col("name"), "ann"))) == [0, 3]
        # Literal absent from the dictionary: no rows, no value scan.
        assert list(filter_rows(relation, eq(col("name"), "zed"))) == []
        # NULL literal: equality is never true.
        assert list(filter_rows(relation, eq(col("name"), None))) == []

    def test_in_list(self, relation, backend):
        predicate = in_(col("city"), ["rome", "paris", None])
        assert list(filter_rows(relation, predicate)) == [0, 2]

    def test_order_comparison_via_dictionary_table(self, relation, backend):
        assert list(filter_rows(relation, ge(col("age"), 30))) == [0, 3, 4]
        assert list(filter_rows(relation, lt(col("age"), 30))) == [2]

    def test_not_over_null_rows(self, relation, backend):
        # name IS NULL on row 2; NOT (name = 'ann') keeps it.
        assert list(filter_rows(relation, not_(eq(col("name"), "ann")))) == [1, 2, 4]

    def test_column_pair_equality(self, backend):
        r = Relation.from_columns(
            "r",
            {"A": ["x", "y", None, "z"], "B": ["x", "z", None, "z"]},
        )
        assert list(filter_rows(r, eq(col("A"), col("B")))) == [0, 3]
        # NULL <> NULL is false too: only rows where both sides are
        # non-null and different qualify.
        assert list(filter_rows(r, ne(col("A"), col("B")))) == [1]

    def test_arithmetic_leaf(self, relation, backend):
        predicate = gt(Arith("*", Col("age"), Lit(2)), 60)
        assert list(filter_rows(relation, predicate)) == [4]

    def test_constant_leaf(self, relation, backend):
        assert list(filter_rows(relation, eq(lit(1), 1))) == [0, 1, 2, 3, 4]
        assert list(filter_rows(relation, eq(lit(1), 2))) == []

    def test_unknown_column(self, relation, backend):
        with pytest.raises(ExpressionError, match="unknown column"):
            filter_rows(relation, eq(col("nope"), 1))

    def test_short_circuit_matches_oracle(self, relation, backend):
        # 'age' is an int column, so `age < 'x'` errors on any evaluated
        # row — but only *reachable* rows count, exactly like the
        # scalar oracle's left-to-right short-circuit walk.
        bad = lt(col("age"), "x")
        never = eq(col("name"), "nobody")
        always = is_null(col("name"), negated=False)
        # AND: left always false → the erroring right leaf is skipped.
        assert list(filter_rows(relation, and_(never, bad))) == []
        # OR: left true only on row 2 → bad is reached on rows 0,1,3,4.
        with pytest.raises(ExpressionError, match="cannot compare"):
            filter_rows(relation, or_(always, bad))
        # Reachable error raises the oracle's message.
        with pytest.raises(ExpressionError, match="cannot compare"):
            filter_rows(relation, bad)

    def test_nan_never_satisfies_equality(self, backend):
        nan = float("nan")
        r = Relation.from_columns("r", {"A": [1.0, nan, 2.0], "B": [nan, nan, 2.0]})
        # The dictionary would find the same NaN object by identity;
        # predicate equality follows ==, where NaN equals nothing.
        assert list(filter_rows(r, eq(col("A"), nan))) == []
        assert list(filter_rows(r, in_(col("A"), [nan, 2.0]))) == [2]
        assert list(filter_rows(r, eq(col("A"), col("B")))) == [2]
        # <> over NaN pairs is *true* (both non-null, != holds).
        assert list(filter_rows(r, ne(col("A"), col("B")))) == [0, 1]
        # The scalar oracle agrees row for row.
        for predicate in (
            eq(col("A"), nan),
            in_(col("A"), [nan, 2.0]),
            eq(col("A"), col("B")),
            ne(col("A"), col("B")),
        ):
            names = r.attribute_names
            expected = [
                i
                for i, row in enumerate(r.rows())
                if evaluate_predicate(predicate, dict(zip(names, row)))
            ]
            assert list(filter_rows(r, predicate)) == expected

    def test_unreachable_unknown_column_is_ignored(self, relation, backend):
        predicate = and_(eq(col("name"), "nobody"), eq(col("ghost"), 1))
        assert list(filter_rows(relation, predicate)) == []
        empty = relation.take([])
        assert list(filter_rows(empty, eq(col("ghost"), 1))) == []

    def test_compound(self, relation, backend):
        predicate = or_(
            and_(eq(col("city"), "oslo"), gt(col("age"), 40)),
            is_null(col("name")),
        )
        assert list(filter_rows(relation, predicate)) == [2, 4]


class TestRelationIntegration:
    def test_select_accepts_ir(self, relation, backend):
        selected = relation.select(eq(col("city"), "rome"))
        assert selected.num_rows == 2
        assert selected.column_values("name") == ["ann", None]

    def test_select_still_accepts_callables_with_deprecation(
        self, relation, backend
    ):
        with pytest.warns(DeprecationWarning, match="callable predicate"):
            selected = relation.select(lambda row: row["city"] == "rome")
        assert selected.column_values("name") == ["ann", None]

    def test_take_matches_value_level_reencode(self, relation, backend):
        rows = [4, 0, 2, 0]
        taken = relation.take(rows)
        for name in relation.attribute_names:
            column = taken.column(name)
            reference = EncodedColumn.from_values(
                relation.column(name).value(row) for row in rows
            )
            assert column.codes == reference.codes
            assert column.dictionary == reference.dictionary

    def test_take_shares_dictionary_objects(self, relation, backend):
        taken = relation.take([0, 1])
        parent = relation.column("name").dictionary
        for value in taken.column("name").dictionary:
            assert any(value is item for item in parent)

    def test_validation_scope_via_ir(self, relation, backend):
        from repro.core.validate import validate_relation
        from repro.fd.fd import fd

        scope = and_(
            is_null(col("city"), negated=True), is_null(col("age"), negated=True)
        )
        report = validate_relation(relation, [fd("[city] -> age")], scope=scope)
        # Scoped rows: rome→30, rome→25, oslo→41 — the FD is violated.
        assert len(report.entries) == 1
        assert report.entries[0].is_violated
