"""Property suite: the PR-10 optimizer must be invisible.

``optimize_plan`` (predicate pushdown, projection pruning, constant
folding, join reordering) and the zone-map scan skips are rewrites of
the *physical* work only — for every random query tree, every backend,
on the columnar executor and on the row-dict oracle
(``tests/oracles/rowdict.py``, fed the plan this module optimizes), the
optimized execution must produce byte-identical results **and
byte-identical error messages** to the unoptimized path: the raw
``plan_query`` plan run by ``execute_plan``, which runs exactly the plan
it is given.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.relational import kernels
from repro.relational.catalog import Catalog
from repro.relational.errors import ReproError
from repro.relational.relation import Relation
from repro.sql import ast
from repro.sql.executor import execute, execute_plan
from repro.sql.optimize import optimize_plan
from repro.sql.parser import parse
from repro.sql.plan import plan_query, to_sql
from repro.sql.stats import StatisticsProvider
from tests.oracles.rowdict import RowdictEngine

from .test_columnar_oracle import (
    catalog_of,
    join_queries,
    join_relations,
    queries,
    relations,
    run_parsed,
    where_expressions,
)

BACKENDS = kernels.available_backends()
ENGINES = ("columnar", "rowdict")


def _outcome(run):
    """Result triple or error pair — errors must match *exactly*."""
    try:
        result = run()
        return ("ok", result.columns, result.rows)
    except ReproError as error:
        return ("error", type(error).__name__, str(error))


def _run_on(engine, relation, query, optimize):
    """One single-table execution on either engine."""
    if engine == "columnar":
        if optimize == "on":
            return run_parsed(relation, query)
        return execute_plan(catalog_of(relation), plan_query(query))
    plan = plan_query(query)
    if optimize == "on":
        plan = optimize_plan(plan, StatisticsProvider(catalog=catalog_of(relation)))
    return RowdictEngine(None, relation).run(plan)


def _execute_on(engine, catalog, sql, optimize):
    """One catalog execution on either engine."""
    if engine == "columnar":
        if optimize == "on":
            return execute(catalog, sql)
        return execute_plan(catalog, plan_query(parse(sql)))
    plan = plan_query(parse(sql))
    if optimize == "on":
        plan = optimize_plan(plan, StatisticsProvider(catalog=catalog))
    return RowdictEngine(catalog, None).run(plan)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(relation=relations(), query=queries(), engine=st.sampled_from(ENGINES))
def test_single_table_equivalence(backend, relation, query, engine):
    with use_engine(backend=backend):
        optimized = _outcome(lambda: _run_on(engine, relation, query, "on"))
        oracle = _outcome(lambda: _run_on(engine, relation, query, "off"))
    assert optimized == oracle


@st.composite
def risky_wheres(draw):
    """WHERE trees that can raise: division by zero, incomparable order
    comparisons, unknown columns — the shapes the pushdown safety
    analysis must refuse to move."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        risky = ast.Comparison(
            draw(st.sampled_from(["=", "<", ">"])),
            ast.Arith("/", ast.ColumnRef("I1"), ast.ColumnRef("I2")),
            ast.Literal(draw(st.integers(0, 2))),
        )
    elif kind == 1:
        risky = ast.Comparison(
            draw(st.sampled_from(["<", "<=", ">", ">="])),
            ast.ColumnRef(draw(st.sampled_from(["S1", "S2"]))),
            ast.Literal(draw(st.integers(0, 3))),
        )
    else:
        risky = ast.Comparison(
            "=", ast.ColumnRef("missing"), ast.Literal(draw(st.integers(0, 2)))
        )
    safe = draw(where_expressions(depth=1))
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return risky
    if shape == 1:
        return ast.And(safe, risky)
    return ast.And(risky, safe)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(
    relation=relations(),
    where=risky_wheres(),
    engine=st.sampled_from(ENGINES),
)
def test_error_message_equivalence(backend, relation, where, engine):
    query = ast.SelectQuery(
        items=(ast.SelectItem(ast.ColumnRef("I1")),),
        table="r",
        where=where,
        order_by=(ast.OrderItem(ast.ColumnRef("I1"), descending=False),),
    )
    with use_engine(backend=backend):
        optimized = _outcome(lambda: _run_on(engine, relation, query, "on"))
        oracle = _outcome(lambda: _run_on(engine, relation, query, "off"))
    assert optimized == oracle


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(
    relations_pair=join_relations(),
    query=join_queries(),
    engine=st.sampled_from(ENGINES),
)
def test_join_equivalence(backend, relations_pair, query, engine):
    left, right = relations_pair
    catalog = Catalog()
    catalog.add_relation(left)
    catalog.add_relation(right)
    sql = to_sql(plan_query(query))
    with use_engine(backend=backend):
        optimized = _outcome(lambda: _execute_on(engine, catalog, sql, "on"))
        oracle = _outcome(lambda: _execute_on(engine, catalog, sql, "off"))
    assert optimized == oracle


@settings(max_examples=60, deadline=None)
@given(relation=relations(), query=queries())
def test_optimize_idempotent(relation, query):
    """Optimizing an already-optimized plan is a no-op."""
    provider = StatisticsProvider(catalog=catalog_of(relation))
    once = optimize_plan(plan_query(query), provider)
    assert optimize_plan(once, provider) == once


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_join_reorder_equivalence(backend, engine):
    """Cost-based equi-join reordering preserves results exactly."""
    fact = Relation.from_columns(
        "fact",
        {
            "k1": [i % 4 for i in range(40)],
            "k2": [i % 10 for i in range(40)],
            "v": list(range(40)),
        },
    )
    dim1 = Relation.from_columns(
        "dim1", {"d1": list(range(4)), "x": ["a", "b", "c", "d"]}
    )
    dim2 = Relation.from_columns(
        "dim2", {"d2": list(range(10)), "y": [f"y{i}" for i in range(10)]}
    )
    catalog = Catalog()
    for rel in (fact, dim1, dim2):
        catalog.add_relation(rel)
    sql = (
        "SELECT fact.v, dim1.x, dim2.y FROM fact "
        "JOIN dim1 ON fact.k1 = dim1.d1 "
        "JOIN dim2 ON fact.k2 = dim2.d2 "
        "WHERE fact.v >= 5 ORDER BY fact.v"
    )
    with use_engine(backend=backend):
        optimized = _execute_on(engine, catalog, sql, "on")
        oracle = _execute_on(engine, catalog, sql, "off")
    assert optimized.columns == oracle.columns
    assert optimized.rows == oracle.rows
    # The cost model must actually reorder here: dim1 (4 distinct k1
    # values over 40 rows) is the more selective join and moves first.
    plan = optimize_plan(
        plan_query(parse(sql)), StatisticsProvider(catalog=catalog)
    )
    joined = []
    node = plan
    while hasattr(node, "source"):
        if hasattr(node, "kind"):  # a Join operator
            joined.append(node.table)
        node = node.source
    assert sorted(joined) == ["dim1", "dim2"]
