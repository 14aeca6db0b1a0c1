"""Property suite: columnar SQL execution equals the row-dict oracle.

Random :class:`~repro.sql.ast.SelectQuery` trees — WHERE expressions
(including arithmetic and IN lists) over nullable columns, projections
with DISTINCT/LIMIT/OFFSET, aggregates (COUNT/SUM/MIN/MAX/AVG), GROUP
BY + HAVING, ORDER BY, and inner/left joins — must produce *identical*
result sets (column labels, row values, row order) on the ``columnar``
and ``rowdict`` engines, on every installed kernel backend.  The
``rowdict`` engine is the original tree-walking interpreter, retained
precisely to serve as this oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import kernels
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.sql import ast
from repro.sql.errors import SqlExecutionError
from repro.sql.executor import _run, execute, execute_on_relation

BACKENDS = kernels.available_backends()

_STRINGS = ["u", "v", "w"]

string_values = st.one_of(st.none(), st.sampled_from(_STRINGS))
int_values = st.one_of(st.none(), st.integers(0, 3))

_COLUMNS = ("S1", "S2", "I1", "I2")


@st.composite
def relations(draw, max_rows: int = 14):
    n = draw(st.integers(0, max_rows))
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
def where_expressions(draw, depth: int = 2):
    """Well-typed WHERE trees over the relations() schema."""
    if depth > 0 and draw(st.booleans()):
        shape = draw(st.integers(0, 2))
        if shape == 0:
            return ast.And(
                draw(where_expressions(depth=depth - 1)),
                draw(where_expressions(depth=depth - 1)),
            )
        if shape == 1:
            return ast.Or(
                draw(where_expressions(depth=depth - 1)),
                draw(where_expressions(depth=depth - 1)),
            )
        return ast.Not(draw(where_expressions(depth=depth - 1)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        column = ast.ColumnRef(draw(st.sampled_from(["S1", "S2"])))
        literal = ast.Literal(
            draw(st.one_of(st.none(), st.sampled_from(_STRINGS + ["zz"])))
        )
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        left, right = (column, literal) if draw(st.booleans()) else (literal, column)
        return ast.Comparison(op, left, right)
    if kind == 1:
        column = ast.ColumnRef(draw(st.sampled_from(["I1", "I2"])))
        literal = ast.Literal(draw(st.one_of(st.none(), st.integers(-1, 4))))
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return ast.Comparison(op, column, literal)
    if kind == 2:
        column = ast.ColumnRef(draw(st.sampled_from(_COLUMNS)))
        return ast.IsNull(column, negated=draw(st.booleans()))
    if kind == 3:
        # Arithmetic comparisons (no division here; error-order
        # equivalence has its own test below).
        arith = ast.Arith(
            draw(st.sampled_from(["+", "-", "*"])),
            ast.ColumnRef(draw(st.sampled_from(["I1", "I2"]))),
            ast.Literal(draw(st.integers(-2, 3))),
        )
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return ast.Comparison(op, arith, ast.Literal(draw(st.integers(-2, 6))))
    if draw(st.booleans()):
        column = ast.ColumnRef(draw(st.sampled_from(["S1", "S2"])))
        values = tuple(
            draw(st.lists(st.sampled_from(_STRINGS + ["zz"]), min_size=1, max_size=3))
        )
    else:
        column = ast.ColumnRef(draw(st.sampled_from(["I1", "I2"])))
        values = tuple(draw(st.lists(st.integers(-1, 4), min_size=1, max_size=3)))
    return ast.InList(column, values, negated=draw(st.booleans()))


def _order_items(draw, names):
    picked = draw(st.lists(st.sampled_from(names), min_size=0, max_size=2))
    return tuple(
        ast.OrderItem(ast.ColumnRef(name), descending=draw(st.booleans()))
        for name in picked
    )


@st.composite
def queries(draw):
    """Random SELECT trees exercising every executor code path."""
    where = draw(st.one_of(st.none(), where_expressions()))
    limit = draw(st.one_of(st.none(), st.integers(0, 5)))
    offset = draw(st.one_of(st.none(), st.integers(0, 3)))
    shape = draw(st.integers(0, 3))
    if shape == 0:  # plain / DISTINCT projection, maybe star
        if draw(st.booleans()):
            items = (ast.SelectItem(ast.ColumnRef("*")),)
        else:
            names = draw(
                st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=3)
            )
            items = tuple(ast.SelectItem(ast.ColumnRef(name)) for name in names)
            if draw(st.booleans()):  # an arithmetic projection item
                items += (
                    ast.SelectItem(
                        ast.Arith(
                            draw(st.sampled_from(["+", "-", "*"])),
                            ast.ColumnRef("I1"),
                            ast.ColumnRef("I2"),
                        ),
                        alias="calc",
                    ),
                )
        return ast.SelectQuery(
            items=items,
            table="r",
            where=where,
            distinct=draw(st.booleans()),
            limit=limit,
            order_by=_order_items(draw, _COLUMNS),
            offset=offset,
        )
    if shape == 1:  # global aggregates
        items = []
        for _ in range(draw(st.integers(1, 2))):
            pick = draw(st.integers(0, 2))
            if pick == 0:
                items.append(ast.SelectItem(ast.CountStar()))
            elif pick == 1:
                columns = draw(
                    st.lists(
                        st.sampled_from(_COLUMNS), min_size=1, max_size=2, unique=True
                    )
                )
                items.append(ast.SelectItem(ast.CountDistinct(tuple(columns))))
            else:
                items.append(
                    ast.SelectItem(
                        ast.AggregateCall(
                            draw(st.sampled_from(["sum", "min", "max", "avg"])),
                            ast.ColumnRef(draw(st.sampled_from(["I1", "I2"]))),
                            distinct=draw(st.booleans()),
                        )
                    )
                )
        return ast.SelectQuery(items=tuple(items), table="r", where=where)
    # GROUP BY with key columns and aggregates
    group_by = tuple(
        draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=2, unique=True))
    )
    items = [ast.SelectItem(ast.ColumnRef(name)) for name in group_by]
    items.append(ast.SelectItem(ast.CountStar()))
    columns = draw(
        st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=2, unique=True)
    )
    items.append(ast.SelectItem(ast.CountDistinct(tuple(columns)), alias="cd"))
    if draw(st.booleans()):
        items.append(
            ast.SelectItem(
                ast.AggregateCall(
                    draw(st.sampled_from(["sum", "min", "max", "avg"])),
                    ast.ColumnRef(draw(st.sampled_from(["I1", "I2"]))),
                ),
                alias="agg",
            )
        )
    having = None
    if draw(st.booleans()):
        having = ast.Comparison(
            draw(st.sampled_from([">", ">=", "<", "="])),
            ast.CountStar(),
            ast.Literal(draw(st.integers(0, 3))),
        )
    order_by = _order_items(draw, group_by + ("cd",))
    return ast.SelectQuery(
        items=tuple(items),
        table="r",
        where=where,
        group_by=group_by,
        limit=limit,
        having=having,
        order_by=order_by,
        offset=offset,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(relation=relations(), query=queries())
def test_columnar_equals_rowdict(backend, relation, query):
    with kernels.use_backend(backend):
        columnar = _run(relation, query, engine="columnar")
        oracle = _run(relation, query, engine="rowdict")
    assert columnar.columns == oracle.columns
    assert columnar.rows == oracle.rows


@st.composite
def join_relations(draw, max_rows: int = 10):
    n = draw(st.integers(0, max_rows))
    m = draw(st.integers(0, max_rows))
    left = Relation.from_columns(
        "r",
        {
            "I1": draw(st.lists(int_values, min_size=n, max_size=n)),
            "S1": draw(st.lists(string_values, min_size=n, max_size=n)),
        },
    )
    right = Relation.from_columns(
        "s",
        {
            "K": draw(st.lists(int_values, min_size=m, max_size=m)),
            "J1": draw(st.lists(string_values, min_size=m, max_size=m)),
        },
    )
    return left, right


@st.composite
def join_queries(draw):
    join = ast.JoinClause(
        kind=draw(st.sampled_from(["inner", "left"])),
        table="s",
        alias=None,
        on=ast.Comparison(
            "=", ast.ColumnRef("I1", table="r"), ast.ColumnRef("K", table="s")
        ),
    )
    items = (
        ast.SelectItem(ast.ColumnRef("I1", table="r")),
        ast.SelectItem(ast.ColumnRef("S1", table="r")),
        ast.SelectItem(ast.ColumnRef("J1", table="s")),
    )
    where = None
    if draw(st.booleans()):
        where = ast.Comparison(
            draw(st.sampled_from(["=", "<>", "<", ">="])),
            ast.ColumnRef("J1", table="s"),
            ast.Literal(draw(st.one_of(st.none(), st.sampled_from(_STRINGS)))),
        )
    order_by = ()
    if draw(st.booleans()):
        order_by = (
            ast.OrderItem(
                ast.ColumnRef("J1", table="s"),
                descending=draw(st.booleans()),
            ),
        )
    return ast.SelectQuery(
        items=items,
        table="r",
        joins=(join,),
        where=where,
        order_by=order_by,
        limit=draw(st.one_of(st.none(), st.integers(0, 6))),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(relations_pair=join_relations(), query=join_queries())
def test_join_columnar_equals_rowdict(backend, relations_pair, query):
    left, right = relations_pair
    catalog = Catalog()
    catalog.add_relation(left)
    catalog.add_relation(right)
    with kernels.use_backend(backend):
        columnar = execute(catalog, ast_to_result(query), engine="columnar")
        oracle = execute(catalog, ast_to_result(query), engine="rowdict")
    assert columnar.columns == oracle.columns
    assert columnar.rows == oracle.rows


def ast_to_result(query):
    """Round the AST through the planner's SQL text (validates to_sql too)."""
    from repro.sql.plan import plan_query, to_sql

    return to_sql(plan_query(query))


@pytest.mark.parametrize("backend", BACKENDS)
def test_division_errors_equal_across_engines(backend):
    """Division by zero raises the *same* message from both engines.

    The columnar engine evaluates WHERE arithmetic via the IR error
    mask and re-raises from the first erroring row; the rowdict engine
    walks rows in ascending order — the messages must agree exactly.
    """
    relation = Relation.from_columns(
        "r", {"A": [4, 6, 8], "B": [2, 0, 0]}
    )
    sql = "SELECT A FROM r WHERE A / B > 1"
    with kernels.use_backend(backend):
        errors = {}
        for engine in ("columnar", "rowdict"):
            with pytest.raises(SqlExecutionError) as info:
                execute_on_relation(relation, sql, engine=engine)
            errors[engine] = str(info.value)
        assert errors["columnar"] == errors["rowdict"]
        assert "division by zero" in errors["columnar"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_sql_text_both_engines(backend):
    relation = Relation.from_columns(
        "places",
        {
            "city": ["rome", "oslo", None, "rome", "oslo"],
            "zip": [100, 200, 300, 100, None],
        },
    )
    statements = [
        "SELECT * FROM places WHERE city = 'rome'",
        "SELECT city FROM places WHERE zip > 100 OR city IS NULL",
        "SELECT DISTINCT city FROM places LIMIT 2",
        "SELECT COUNT(*) FROM places WHERE NOT city = 'rome'",
        "SELECT COUNT(DISTINCT city, zip) FROM places",
        "SELECT city, COUNT(*) FROM places GROUP BY city",
        "SELECT city, COUNT(DISTINCT zip) AS zips FROM places "
        "WHERE zip IS NOT NULL GROUP BY city",
        "SELECT city, zip + 1 AS next FROM places WHERE zip * 2 >= 200",
        "SELECT city FROM places ORDER BY zip DESC, city LIMIT 3",
        "SELECT city, COUNT(*) FROM places GROUP BY city "
        "HAVING COUNT(*) >= 2 ORDER BY city",
        "SELECT city, MIN(zip), MAX(zip), SUM(zip), AVG(zip) "
        "FROM places GROUP BY city ORDER BY city",
        "SELECT city FROM places WHERE city IN ('rome', 'paris')",
        "SELECT city FROM places WHERE zip NOT IN (100, 300)",
        "SELECT city FROM places ORDER BY city LIMIT 2 OFFSET 1",
    ]
    with kernels.use_backend(backend):
        for sql in statements:
            columnar = execute_on_relation(relation, sql)
            oracle = execute_on_relation(relation, sql, engine="rowdict")
            assert columnar.columns == oracle.columns
            assert columnar.rows == oracle.rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_join_sql_text_both_engines(backend):
    orders = Relation.from_columns(
        "orders",
        {
            "oid": [1, 2, 3, 4],
            "cid": [10, 20, 10, None],
            "total": [5, 7, None, 2],
        },
    )
    customers = Relation.from_columns(
        "customers",
        {"cid": [10, 20, 30], "name": ["ada", "bob", None]},
    )
    catalog = Catalog()
    catalog.add_relation(orders)
    catalog.add_relation(customers)
    statements = [
        "SELECT orders.oid, customers.name FROM orders "
        "JOIN customers ON orders.cid = customers.cid",
        "SELECT orders.oid, customers.name FROM orders "
        "LEFT JOIN customers ON orders.cid = customers.cid "
        "ORDER BY orders.oid",
        "SELECT customers.name, COUNT(*), SUM(orders.total) FROM orders "
        "JOIN customers ON orders.cid = customers.cid "
        "GROUP BY customers.name ORDER BY customers.name",
        "SELECT o.oid, c.name FROM orders o "
        "JOIN customers AS c ON o.cid = c.cid WHERE o.total >= 5",
    ]
    with kernels.use_backend(backend):
        for sql in statements:
            columnar = execute(catalog, sql)
            oracle = execute(catalog, sql, engine="rowdict")
            assert columnar.columns == oracle.columns, sql
            assert columnar.rows == oracle.rows, sql


def test_null_rows_never_satisfy_equality_but_match_is_null():
    relation = Relation.from_columns("r", {"A": ["x", None, "y", None]})
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            hit = execute_on_relation(relation, "SELECT COUNT(*) FROM r WHERE A = 'x'")
            assert hit.scalar == 1
            null = execute_on_relation(
                relation, "SELECT COUNT(*) FROM r WHERE A IS NULL"
            )
            assert null.scalar == 2
            neq = execute_on_relation(
                relation, "SELECT COUNT(*) FROM r WHERE A <> 'missing'"
            )
            assert neq.scalar == 2  # NULL rows fail <> too
