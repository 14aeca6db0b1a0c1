"""SQL over stores: chunked pushdown scans equal in-memory execution."""

from __future__ import annotations

import pytest

from repro.core.config import use_engine
from repro.datagen import tpch
from repro.relational import kernels
from repro.relational.catalog import Catalog
from repro.relational.errors import DuplicateRelationError
from repro.sql.database import Database
from repro.sql.errors import SqlExecutionError
from repro.sql.executor import execute_on_relation
from repro.storage.sqlbridge import compile_where, query_store, scan_store

BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def orders_store(tmp_path_factory):
    stores = tpch.generate_to_store(
        tmp_path_factory.mktemp("sqlbridge"),
        "tiny",
        seed=42,
        tables=("orders",),
        chunk_rows=257,
    )
    yield stores["orders"]
    stores["orders"].close()


@pytest.fixture(scope="module")
def orders(orders_store):
    return orders_store.to_relation()


@pytest.mark.parametrize("backend", BACKENDS)
class TestScanStore:
    def test_scan_equals_in_memory_select(self, backend, orders_store, orders):
        with use_engine(backend=backend):
            scan = scan_store(orders_store, where="totalprice > 400000")
        survivors = [row for row in orders.rows() if row[3] > 400000]
        assert sorted(map(tuple, scan.rows())) == sorted(map(tuple, survivors))

    def test_projection_keeps_predicate_columns_out(
        self, backend, orders_store, orders
    ):
        with use_engine(backend=backend):
            scan = scan_store(
                orders_store,
                where="totalprice > 400000",
                columns=["orderkey", "orderstatus"],
            )
        assert scan.attribute_names == ("orderkey", "orderstatus")
        expected = [
            (row[0], row[2]) for row in orders.rows() if row[3] > 400000
        ]
        assert sorted(scan.rows()) == sorted(expected)

    def test_no_filter_full_scan(self, backend, orders_store, orders):
        with use_engine(backend=backend):
            scan = scan_store(orders_store)
        assert scan.num_rows == orders.num_rows

    def test_unknown_predicate_column_raises(self, backend, orders_store):
        with use_engine(backend=backend):
            with pytest.raises(SqlExecutionError):
                scan_store(
                    orders_store,
                    where="nosuchcolumn > 1",
                    columns=["orderkey"],
                )


@pytest.mark.parametrize("backend", BACKENDS)
class TestQueryStore:
    SQL = (
        "SELECT orderstatus, COUNT(*) AS c FROM orders "
        "WHERE totalprice > 300000 GROUP BY orderstatus ORDER BY orderstatus"
    )

    def test_query_equals_in_memory(self, backend, orders_store, orders):
        with use_engine(backend=backend):
            got = query_store(orders_store, self.SQL)
            want = execute_on_relation(orders, self.SQL)
        assert got.rows == want.rows
        assert got.column_names == want.column_names

    def test_select_star_still_full_width(self, backend, orders_store, orders):
        with use_engine(backend=backend):
            got = query_store(
                orders_store, "SELECT * FROM orders WHERE totalprice > 400000"
            )
        assert got.column_names == orders.attribute_names
        expected = sum(1 for row in orders.rows() if row[3] > 400000)
        assert len(got.rows) == expected

    def test_count_star_without_column_refs(self, backend, orders_store, orders):
        with use_engine(backend=backend):
            got = query_store(orders_store, "SELECT COUNT(*) AS c FROM orders")
        assert got.rows[0][0] == orders.num_rows

    def test_order_by_alias_survives_projection(self, backend, orders_store, orders):
        sql = (
            "SELECT orderstatus, COUNT(*) AS c FROM orders "
            "GROUP BY orderstatus ORDER BY c DESC"
        )
        with use_engine(backend=backend):
            got = query_store(orders_store, sql)
            want = execute_on_relation(orders, sql)
        assert got.rows == want.rows

    def test_wrong_table_rejected(self, backend, orders_store):
        with use_engine(backend=backend):
            with pytest.raises(SqlExecutionError):
                query_store(orders_store, "SELECT * FROM lineitem")

    def test_joins_rejected(self, backend, orders_store):
        """The shim's catalog holds only the store: joining any other
        table fails (``Database.attach_store`` is the way to join)."""
        sql = (
            "SELECT * FROM orders JOIN customer "
            "ON orders.custkey = customer.custkey"
        )
        with use_engine(backend=backend):
            with pytest.raises(SqlExecutionError, match="unknown relation 'customer'"):
                query_store(orders_store, sql)


class TestAttachStore:
    def test_attach_and_query(self, orders_store, orders):
        db = Database(Catalog())
        assert db.attach_store(orders_store) is orders_store
        assert "orders" in db.table_names()
        result = db.query("SELECT COUNT(*) AS c FROM orders")
        assert result.rows[0][0] == orders.num_rows

    def test_attach_filtered_slice(self, orders_store, orders):
        """A filtered slice is a WHERE on the attached table."""
        db = Database(Catalog())
        db.attach_store(orders_store)
        expected = sum(1 for row in orders.rows() if row[3] > 450000)
        result = db.query("SELECT COUNT(*) AS c FROM orders WHERE totalprice > 450000")
        assert result.rows[0][0] == expected

    def test_attach_replace_flag(self, orders_store, orders):
        db = Database.from_relations(orders.head(5))
        with pytest.raises(DuplicateRelationError):
            db.attach_store(orders_store)
        assert db.query("SELECT COUNT(*) FROM orders").rows == ((5,),)
        db.attach_store(orders_store, replace=True)
        assert db.query("SELECT COUNT(*) FROM orders").rows == ((orders.num_rows,),)


class TestCompileWhere:
    def test_compiles_to_predicate(self):
        predicate = compile_where("totalprice > 100 AND orderstatus = 'O'")
        from repro.relational import expr as ir

        assert ir.is_predicate(predicate)
        assert set(ir.columns_of(predicate)) == {"totalprice", "orderstatus"}
