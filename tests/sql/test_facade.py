"""The user-facing surface: ``Database``/``connect``, ``ResultSet``
conveniences, and the uniform ``engine=`` validation every entry point
shares (see ``repro.relational.errors.validate_engine``).
"""

from __future__ import annotations

import pytest

from repro.core.monitor import FDMonitor
from repro.dc import DCError, discover_dcs
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.sql import Database, SqlExecutionError, connect, execute, execute_plan
from repro.sql.parser import parse
from repro.sql.plan import plan_query


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
        assert db.query(sql) == db.query(sql, engine="rowdict")

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
    """Every entry point validates ``engine=`` with the same message."""

    MESSAGE = "unknown engine 'nope'; expected one of"

    def test_execute(self, relation):
        catalog = Catalog()
        catalog.add_relation(relation)
        with pytest.raises(SqlExecutionError, match=self.MESSAGE):
            execute(catalog, "SELECT * FROM people", engine="nope")

    def test_execute_plan(self, relation):
        catalog = Catalog()
        catalog.add_relation(relation)
        plan = plan_query(parse("SELECT * FROM people"))
        with pytest.raises(SqlExecutionError, match=self.MESSAGE):
            execute_plan(catalog, plan, engine="nope")

    def test_database_query(self, db):
        with pytest.raises(SqlExecutionError, match=self.MESSAGE):
            db.query("SELECT * FROM people", engine="nope")

    def test_discover_dcs(self):
        relation = Relation.from_columns("r", {"A": [1.0, 2.0]})
        with pytest.raises(DCError, match=self.MESSAGE):
            discover_dcs(relation, engine="nope")

    def test_fd_monitor(self, relation):
        with pytest.raises(ValueError, match=self.MESSAGE):
            FDMonitor(relation, engine="nope")
