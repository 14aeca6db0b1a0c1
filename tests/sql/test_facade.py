"""The user-facing surface: ``Database``/``connect`` and ``ResultSet``
conveniences."""

from __future__ import annotations

import pytest

from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.sql import Database, SqlExecutionError, connect, execute_plan
from repro.sql.parser import parse
from repro.sql.plan import plan_query
from tests.oracles import rowdict


@pytest.fixture
def relation():
    return Relation.from_columns(
        "people",
        {
            "name": ["ann", "bob", "cal"],
            "city": ["rome", "oslo", None],
        },
    )


@pytest.fixture
def db(relation):
    return Database.from_relations(relation)


class TestDatabase:
    def test_from_relations_and_table_names(self, db):
        assert db.table_names() == ["people"]

    def test_connect_catalog(self, relation):
        catalog = Catalog()
        catalog.add_relation(relation)
        db = connect(catalog)
        assert isinstance(db, Database)
        assert db.table_names() == ["people"]

    def test_connect_passthrough(self, db):
        assert connect(db) is db

    def test_query(self, db):
        result = db.query("SELECT name FROM people WHERE city = 'rome'")
        assert result.rows == (("ann",),)

    def test_query_both_engines_agree(self, db):
        sql = "SELECT city, COUNT(*) FROM people GROUP BY city ORDER BY city"
        assert db.query(sql) == rowdict.execute(db.catalog, sql)

    def test_query_plan(self, db):
        plan = plan_query(parse("SELECT name FROM people LIMIT 1"))
        result = db.query_plan(plan)
        assert result.rows == (("ann",),)


class TestResultSet:
    def test_column_names(self, db):
        result = db.query("SELECT name, city FROM people")
        assert result.column_names == ("name", "city")

    def test_row_dict_access(self, db):
        result = db.query("SELECT name, city FROM people LIMIT 1")
        row = result.rows[0]
        assert row["name"] == "ann"
        assert row[1] == "rome"
        assert row.as_dict() == {"name": "ann", "city": "rome"}

    def test_row_unknown_column(self, db):
        row = db.query("SELECT name FROM people LIMIT 1").rows[0]
        with pytest.raises(KeyError, match="unknown column 'nope'"):
            row["nope"]

    def test_to_csv(self, db):
        result = db.query("SELECT name, city FROM people ORDER BY name")
        assert result.to_csv() == "name,city\nann,rome\nbob,oslo\ncal,\n"

    def test_to_csv_quotes_commas(self):
        db = Database.from_relations(
            Relation.from_columns("t", {"a": ["x,y", "plain"]})
        )
        csv_text = db.query("SELECT a FROM t").to_csv()
        assert '"x,y"' in csv_text


class TestEngineValidation:
    """``execute_plan`` keeps its positional engine and optimize slots;
    only ``"columnar", "off"`` is accepted."""

    def test_execute_plan(self, relation):
        catalog = Catalog()
        catalog.add_relation(relation)
        plan = plan_query(parse("SELECT name FROM people LIMIT 1"))
        assert execute_plan(catalog, plan, "columnar", "off").rows == (("ann",),)
        for engine in ("rowdict", "nope"):
            with pytest.raises(SqlExecutionError, match=f"unknown engine '{engine}'"):
                execute_plan(catalog, plan, engine)

    def test_execute_plan_runs_the_given_plan(self, relation):
        catalog = Catalog()
        catalog.add_relation(relation)
        plan = plan_query(parse("SELECT name FROM people LIMIT 1"))
        for optimize in ("on", None, "OFF"):
            with pytest.raises(SqlExecutionError, match="optimize must be 'off'"):
                execute_plan(catalog, plan, "columnar", optimize)
