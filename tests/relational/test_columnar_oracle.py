"""Property suite: the columnar engine equals the row-dict oracle.

PR 4's acceptance contract: for random relations (NULLs included) and
random well-typed predicates,

* ``Relation.select`` over the IR returns exactly the rows the scalar
  oracle (:func:`repro.relational.expr.evaluate_predicate`) keeps;
* the code-space :func:`natural_join` reproduces the retained
  row-at-a-time reference join, output order included;
* SQL execution via the columnar engine equals the ``rowdict`` engine
  (``tests/sql/test_columnar_oracle.py`` drives that surface);
* DC evidence sets agree between the vectorized numpy sweep and the
  reference pair loop.

Every property runs on each installed kernel backend.  NULL semantics
are exercised throughout: NULLs never satisfy equality predicates but
match ``IS NULL``, and NULL joins NULL (the join's historical
value-level behaviour).
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dc.evidence import build_evidence_set
from repro.dc.predicates import build_predicate_space
from repro.relational import expr, kernels
from repro.relational.join import natural_join
from repro.relational.relation import Relation

BACKENDS = kernels.available_backends()

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_STRINGS = ["u", "v", "w", "x"]

string_values = st.one_of(st.none(), st.sampled_from(_STRINGS))
int_values = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def relations(draw, min_rows: int = 0, max_rows: int = 16):
    """Relations with two nullable string and two nullable int columns."""
    n = draw(st.integers(min_rows, max_rows))
    return Relation.from_columns(
        "r",
        {
            "S1": draw(st.lists(string_values, min_size=n, max_size=n)),
            "S2": draw(st.lists(string_values, min_size=n, max_size=n)),
            "I1": draw(st.lists(int_values, min_size=n, max_size=n)),
            "I2": draw(st.lists(int_values, min_size=n, max_size=n)),
        },
    )


@st.composite
def predicates(draw, depth: int = 2):
    """Well-typed random predicates over the relations() schema."""
    if depth > 0:
        shape = draw(st.integers(0, 5))
        if shape == 0:
            return expr.And(
                draw(predicates(depth=depth - 1)), draw(predicates(depth=depth - 1))
            )
        if shape == 1:
            return expr.Or(
                draw(predicates(depth=depth - 1)), draw(predicates(depth=depth - 1))
            )
        if shape == 2:
            return expr.Not(draw(predicates(depth=depth - 1)))
    kind = draw(st.integers(0, 5))
    str_col = expr.col(draw(st.sampled_from(["S1", "S2"])))
    int_col = expr.col(draw(st.sampled_from(["I1", "I2"])))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    if kind == 0:
        literal = draw(st.one_of(st.none(), st.sampled_from(_STRINGS + ["zz"])))
        return expr.Cmp(op, str_col, expr.lit(literal))
    if kind == 1:
        literal = draw(st.one_of(st.none(), st.integers(-1, 5)))
        left, right = int_col, expr.lit(literal)
        if draw(st.booleans()):
            left, right = right, left
        return expr.Cmp(op, left, right)
    if kind == 2:
        column = draw(st.sampled_from([str_col, int_col]))
        return expr.IsNull(column, negated=draw(st.booleans()))
    if kind == 3:
        items = draw(
            st.lists(st.one_of(st.none(), st.sampled_from(_STRINGS)), max_size=3)
        )
        return expr.in_(str_col, items)
    if kind == 4:
        # Same-typed column pair (equality or order).
        pair = draw(
            st.sampled_from([("S1", "S2"), ("I1", "I2"), ("S1", "S1"), ("I2", "I2")])
        )
        return expr.Cmp(op, expr.col(pair[0]), expr.col(pair[1]))
    operand = expr.Arith(
        draw(st.sampled_from(["+", "-", "*"])), int_col, expr.lit(draw(st.integers(0, 3)))
    )
    return expr.Cmp(op, operand, expr.lit(draw(st.integers(-2, 8))))


@st.composite
def loosely_typed_predicates(draw, depth: int = 2):
    """Predicate trees whose leaves may compare across types (so order
    comparisons can raise) — for the error-equivalence property."""
    if depth > 0 and draw(st.booleans()):
        shape = draw(st.integers(0, 2))
        if shape == 0:
            return expr.And(
                draw(loosely_typed_predicates(depth=depth - 1)),
                draw(loosely_typed_predicates(depth=depth - 1)),
            )
        if shape == 1:
            return expr.Or(
                draw(loosely_typed_predicates(depth=depth - 1)),
                draw(loosely_typed_predicates(depth=depth - 1)),
            )
        return expr.Not(draw(loosely_typed_predicates(depth=depth - 1)))
    column = expr.col(draw(st.sampled_from(["S1", "S2", "I1", "I2"])))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    literal = draw(st.one_of(st.none(), st.sampled_from(_STRINGS), st.integers(0, 4)))
    return expr.Cmp(op, column, expr.lit(literal))


def oracle_rows(relation: Relation, predicate) -> list[int]:
    """Row indices the scalar oracle keeps."""
    names = relation.attribute_names
    keep = []
    for index, row in enumerate(relation.rows()):
        if expr.evaluate_predicate(predicate, dict(zip(names, row))):
            keep.append(index)
    return keep


def outcome(fn):
    """Result or the raised expression error, for error-equivalence."""
    try:
        return ("ok", fn())
    except expr.ExpressionError as error:
        return ("error", str(error))


# ----------------------------------------------------------------------
# select: IR vs scalar oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(relation=relations(), predicate=predicates())
def test_filter_rows_equals_scalar_oracle(backend, relation, predicate):
    with kernels.use_backend(backend):
        assert list(expr.filter_rows(relation, predicate)) == oracle_rows(
            relation, predicate
        )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(relation=relations(), predicate=predicates())
def test_select_ir_equals_callable(backend, relation, predicate):
    with kernels.use_backend(backend):
        via_ir = relation.select(predicate)
        with pytest.warns(DeprecationWarning, match="callable predicate"):
            via_callable = relation.select(expr.as_row_callable(predicate))
        assert list(via_ir.rows()) == list(via_callable.rows())


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(relation=relations(), predicate=loosely_typed_predicates())
def test_error_equivalence_with_short_circuit(backend, relation, predicate):
    """Ill-typed leaves raise columnar iff the scalar oracle raises —
    same message, same short-circuit reachability — else rows match."""
    with kernels.use_backend(backend):
        columnar = outcome(lambda: list(expr.filter_rows(relation, predicate)))
    oracle = outcome(lambda: oracle_rows(relation, predicate))
    assert columnar == oracle


float_values = st.one_of(st.integers(0, 3).map(float), st.none(), st.just(float("nan")))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.tuples(float_values, float_values), max_size=40),
    shape=st.integers(0, 11),
)
def test_float_masks_with_null_and_nan_match_scalar_oracle(backend, values, shape):
    """NULL and NaN in float columns: every mask path (code-space
    equality, IN, dictionary truth tables, column-pair remaps, NOT)
    keeps exactly the rows the scalar oracle keeps."""
    relation = Relation.from_columns(
        "f", {"A0": [a for a, _ in values], "A1": [b for _, b in values]}
    )
    a0, a1 = expr.col("A0"), expr.col("A1")
    predicate = [
        expr.eq(a0, 1.0),
        expr.ne(a0, 2.0),
        expr.lt(a0, 2.0),
        expr.in_(a0, [0.0, 3.0, None]),
        expr.is_null(a0),
        expr.is_null(a0, negated=True),
        expr.not_(expr.eq(a0, 0.0)),
        expr.eq(a0, a0),
        expr.eq(a0, a1),
        expr.ne(a0, a1),
        expr.and_(expr.gt(a0, 0.0), expr.lt(a1, 3.0)),
        expr.or_(expr.is_null(a1), expr.eq(a0, 2.0)),
    ][shape]
    with kernels.use_backend(backend):
        columnar = list(expr.filter_rows(relation, predicate))
    assert columnar == oracle_rows(relation, predicate)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(0, 3).map(float), max_size=40))
def test_mixed_type_error_rows_match_scalar_oracle(backend, values):
    """A column mixing floats and strings errors on its string rows
    only: order comparisons raise the oracle's message iff an erroring
    row is reachable, and an unknown column raises iff any row is
    evaluated."""
    mixed = Relation.from_columns(
        "mixed",
        {"M": ["mix" if v == 3.0 else v for v in values], "G": values},
    )
    m, g = expr.col("M"), expr.col("G")
    cases = [
        expr.lt(m, 2.0),
        expr.and_(expr.eq(g, 999.0), expr.lt(m, 2.0)),  # unreachable error
        expr.or_(expr.lt(m, 2.0), expr.eq(g, 0.0)),
        expr.or_(expr.eq(g, 3.0), expr.lt(m, 2.0)),  # skips exactly the 'mix' rows
        expr.eq(expr.col("nope"), 1.0),  # unknown column
    ]
    with kernels.use_backend(backend):
        for predicate in cases:
            columnar = outcome(lambda: list(expr.filter_rows(mixed, predicate)))
            oracle = outcome(lambda: oracle_rows(mixed, predicate))
            assert columnar == oracle


# ----------------------------------------------------------------------
# join: code-space kernel vs row-at-a-time reference
# ----------------------------------------------------------------------
def reference_join(left: Relation, right: Relation) -> list[tuple[Any, ...]]:
    """The pre-PR-4 value-level probe loop, kept as the join oracle."""
    shared = [a for a in left.attribute_names if a in set(right.attribute_names)]
    right_only = [a for a in right.attribute_names if a not in set(shared)]
    build: dict[tuple[Any, ...], list[int]] = {}
    right_cols = {a: right.column_values(a) for a in right.attribute_names}
    for row in range(right.num_rows):
        build.setdefault(tuple(right_cols[a][row] for a in shared), []).append(row)
    left_cols = {a: left.column_values(a) for a in left.attribute_names}
    out: list[tuple[Any, ...]] = []
    for row in range(left.num_rows):
        key = tuple(left_cols[a][row] for a in shared)
        matches = build.get(key, () if shared else None)
        if matches is None:
            matches = range(right.num_rows)
        for other in matches:
            out.append(
                tuple(left_cols[a][row] for a in left.attribute_names)
                + tuple(right_cols[a][other] for a in right_only)
            )
    return out


@st.composite
def join_pairs(draw):
    """Two relations sharing one nullable string and one nullable int
    attribute (plus private ones), sized to keep cross terms small."""
    from repro.relational.schema import Attribute, RelationSchema
    from repro.relational.types import AttributeType

    def attr(name: str, kind: AttributeType) -> Attribute:
        return Attribute(name, kind, nullable=True)

    n_left = draw(st.integers(0, 8))
    n_right = draw(st.integers(0, 8))
    left = Relation.from_columns(
        RelationSchema(
            "left",
            [
                attr("K", AttributeType.STRING),
                attr("N", AttributeType.INTEGER),
                attr("L", AttributeType.INTEGER),
            ],
        ),
        {
            "K": draw(st.lists(string_values, min_size=n_left, max_size=n_left)),
            "N": draw(st.lists(int_values, min_size=n_left, max_size=n_left)),
            "L": draw(st.lists(int_values, min_size=n_left, max_size=n_left)),
        },
    )
    right = Relation.from_columns(
        RelationSchema(
            "right",
            [
                attr("K", AttributeType.STRING),
                attr("N", AttributeType.INTEGER),
                attr("R", AttributeType.STRING),
            ],
        ),
        {
            "K": draw(st.lists(string_values, min_size=n_right, max_size=n_right)),
            "N": draw(st.lists(int_values, min_size=n_right, max_size=n_right)),
            "R": draw(st.lists(string_values, min_size=n_right, max_size=n_right)),
        },
    )
    return left, right


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(pair=join_pairs())
def test_natural_join_equals_reference(backend, pair):
    left, right = pair
    with kernels.use_backend(backend):
        joined = natural_join(left, right)
    assert joined.attribute_names == ("K", "N", "L", "R")
    assert list(joined.rows()) == reference_join(left, right)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(pair=join_pairs())
def test_cross_product_when_disjoint(backend, pair):
    left, right = pair
    left = left.project(["L"], new_name="left")
    right = right.project(["R"], new_name="right")
    with kernels.use_backend(backend):
        joined = natural_join(left, right)
    assert list(joined.rows()) == reference_join(left, right)


def test_null_joins_null():
    """NULL = NULL *matches* in a natural join (value-level tuple keys),
    unlike in predicates — both engines must preserve that asymmetry."""
    left = Relation.from_columns("left", {"K": [None, "a"], "L": [1, 2]})
    right = Relation.from_columns("right", {"K": [None, "b"], "R": [7, 8]})
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            joined = natural_join(left, right)
            assert list(joined.rows()) == [(None, 1, 7)]


# ----------------------------------------------------------------------
# evidence: vectorized sweep vs reference pair loop
# ----------------------------------------------------------------------
@pytest.mark.skipif(not kernels.numpy_available(), reason="NumPy not installed")
def test_evidence_nan_ordered_column_matches_reference():
    """NaN in an ordered column defeats rank comparison — the
    vectorized path must fall back and agree with the reference."""
    nan = float("nan")
    relation = Relation.from_columns(
        "r", {"A": [nan, nan, 1.0], "B": [1.0, 2.0, 1.0]}
    )
    space = build_predicate_space(relation)
    with kernels.use_backend("python"):
        reference = build_evidence_set(relation, space)
    with kernels.use_backend("numpy"):
        vectorized = build_evidence_set(relation, space)
    assert vectorized.counts == reference.counts


@pytest.mark.skipif(not kernels.numpy_available(), reason="NumPy not installed")
@settings(max_examples=40, deadline=None)
@given(relation=relations(max_rows=12))
def test_evidence_counts_identical_across_backends(relation):
    space = build_predicate_space(relation, include_nullable=True)
    if not space.predicates:
        return
    with kernels.use_backend("python"):
        reference = build_evidence_set(relation, space)
    with kernels.use_backend("numpy"):
        vectorized = build_evidence_set(relation, space)
    assert vectorized.counts == reference.counts
    assert vectorized.total_pairs == reference.total_pairs
    assert vectorized.sampled == reference.sampled
