"""Per-chunk zone maps: content, refutation, and the in-memory oracle.

Stores written at format v2 carry a :class:`ChunkZone` per chunk per
column (value range, null count, small-dict members, code span).
``scan_store`` consults them to skip chunks the pushed-down predicate
refutes — and must do so *invisibly*: identical rows and identical
error messages to the same predicate over the whole store in memory,
which shares no zone or scan code with the store path; v1 manifests
still readable.  An attached store is an ordinary SQL table: any
statement over it (joins included) must equal the same statement over
the same rows held in memory.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.relational import expr as ir
from repro.relational import kernels
from repro.relational.errors import DuplicateRelationError, ReproError
from repro.relational.relation import Relation
from repro.sql.database import Database
from repro.sql.executor import execute_on_relation
from repro.storage.format import StoreFormatError, StoreManifest
from repro.storage.reader import open_store
from repro.storage.sqlbridge import (
    ScanStats,
    compile_where,
    query_store,
    scan_store,
)
from repro.storage.writer import ZONE_MEMBER_LIMIT, write_store

BACKENDS = kernels.available_backends()


def _in_memory(store, where: str) -> Relation:
    """The oracle: ``where`` over the whole store materialized in memory."""
    return store.to_relation().select(compile_where(where))


def _clustered(name="t", chunks=10, rows=100):
    """``a`` ascending (each chunk covers a narrow 100-wide band),
    ``b`` a 7-value string column, ``c`` nullable."""
    n = chunks * rows
    return Relation.from_columns(
        name,
        {
            "a": list(range(n)),
            "b": [f"s{i % 7}" for i in range(n)],
            "c": [None if i % 3 == 0 else i for i in range(n)],
        },
    )


@pytest.fixture()
def store(tmp_path):
    handle = write_store(_clustered(), tmp_path / "t", chunk_rows=100)
    yield handle
    handle.close()


class TestZoneContent:
    def test_numeric_zone_ranges(self, store):
        for chunk in range(store.num_chunks):
            zone = store.chunk_zone("a", chunk)
            assert zone.kind == "num"
            assert (zone.min_value, zone.max_value) == (
                100 * chunk,
                100 * chunk + 99,
            )
            assert zone.null_count == 0
            assert zone.members is None  # 100 distinct values > limit
            assert 0 <= zone.min_code <= zone.max_code

    def test_string_members(self, store):
        zone = store.chunk_zone("b", 0)
        assert zone.kind == "str"
        assert zone.members is not None and len(zone.members) == 7
        assert set(zone.members) == {f"s{i}" for i in range(7)}
        assert (zone.min_value, zone.max_value) == ("s0", "s6")

    def test_null_counts(self, store):
        assert store.chunk_zone("c", 0).null_count == 34  # i % 3 == 0

    def test_member_limit_boundary(self, tmp_path):
        at = [i % ZONE_MEMBER_LIMIT for i in range(100)]
        over = [i % (ZONE_MEMBER_LIMIT + 1) for i in range(100)]
        relation = Relation.from_columns("m", {"at": at, "over": over})
        handle = write_store(relation, tmp_path / "m", chunk_rows=100)
        try:
            assert len(handle.chunk_zone("at", 0).members) == ZONE_MEMBER_LIMIT
            assert handle.chunk_zone("over", 0).members is None
        finally:
            handle.close()

    def test_nan_and_bool_kinds(self, tmp_path):
        relation = Relation.from_columns(
            "w",
            {
                "f": [1.0, float("nan"), 3.0, 2.0],
                "nan_only": [float("nan")] * 4,
                "flags": [True, False, True, False],
            },
        )
        handle = write_store(relation, tmp_path / "w", chunk_rows=4)
        try:
            zone = handle.chunk_zone("f", 0)
            assert zone.kind == "num"
            assert (zone.min_value, zone.max_value) == (1.0, 3.0)  # NaN excluded
            assert handle.chunk_zone("nan_only", 0).kind is None
            assert handle.chunk_zone("flags", 0).kind is None  # bools unordered
        finally:
            handle.close()

    def test_zone_roundtrip_through_manifest(self, store):
        reopened = open_store(store.directory)
        try:
            for attr in store.attribute_names:
                for chunk in range(store.num_chunks):
                    assert reopened.chunk_zone(attr, chunk) == store.chunk_zone(
                        attr, chunk
                    )
        finally:
            reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestSkipping:
    def test_range_query_skips_refuted_chunks(self, backend, store):
        stats = ScanStats()
        with use_engine(backend=backend):
            scan = scan_store(
                store, where="a >= 250 AND a < 260", stats=stats
            )
        assert scan.num_rows == 10
        assert (stats.chunks_total, stats.chunks_skipped) == (10, 9)
        assert stats.chunks_scanned == 1

    def test_member_refutation_skips_everything(self, backend, store):
        stats = ScanStats()
        with use_engine(backend=backend):
            scan = scan_store(store, where="b = 'zzz'", stats=stats)
        assert scan.num_rows == 0
        assert stats.chunks_skipped == 10

    def test_optimize_off_is_the_oracle(self, backend, store):
        with use_engine(backend=backend):
            on_stats = ScanStats()
            on = scan_store(store, where="a >= 250 AND a < 260", stats=on_stats)
            oracle = _in_memory(store, "a >= 250 AND a < 260")
        assert list(on.rows()) == list(oracle.rows())
        assert on.num_rows == 10
        assert on_stats.chunks_skipped == 9

    def test_may_raise_conjunct_blocks_skip(self, backend, store):
        """``b > 5`` raises on every chunk; a refuting conjunct *after*
        it must not skip the chunk (the error is reachable)."""
        with use_engine(backend=backend):
            stats = ScanStats()
            with pytest.raises(ReproError) as optimized:
                scan_store(store, where="b > 5 AND a < 0", stats=stats)
            assert stats.chunks_skipped == 0
            with pytest.raises(ReproError) as oracle:
                _in_memory(store, "b > 5 AND a < 0")
        assert str(optimized.value) == str(oracle.value)

    def test_refuting_conjunct_makes_later_errors_unreachable(
        self, backend, store
    ):
        """``a < 0`` refutes every chunk first, so ``b > 5`` can never
        raise — all chunks skip, exactly as the oracle returns no rows."""
        with use_engine(backend=backend):
            stats = ScanStats()
            scan = scan_store(store, where="a < 0 AND b > 5", stats=stats)
            oracle = _in_memory(store, "a < 0 AND b > 5")
        assert stats.chunks_skipped == 10
        assert list(scan.rows()) == list(oracle.rows()) == []

    def test_null_aware_refutation(self, backend, store):
        with use_engine(backend=backend):
            stats = ScanStats()
            scan = scan_store(store, where="a IS NULL", stats=stats)
        assert scan.num_rows == 0
        assert stats.chunks_skipped == 10  # null_count == 0 everywhere

    def test_explain_skips_match_live_scan(self, backend, store):
        """EXPLAIN's dry zone walk reports what the live scan skips."""
        db = Database.from_relations()
        db.attach_store(store)
        sql = "SELECT a FROM t WHERE a >= 250 AND a < 260"
        with use_engine(backend=backend):
            dry = db.explain(sql)
            live = ScanStats()
            query_store(store, sql, scan_stats=live)
        assert (live.chunks_total, live.chunks_skipped) == (10, 9)
        assert "zone maps skip 9/10 chunks" in dry


class TestBackwardCompat:
    def _downgrade_to_v1(self, directory):
        path = directory / "manifest.json"
        payload = json.loads(path.read_text())
        payload["version"] = 1
        for column in payload["columns"].values():
            column.pop("chunk_zones", None)
        path.write_text(json.dumps(payload))

    def test_v1_manifest_reads_without_zones(self, tmp_path):
        handle = write_store(_clustered(), tmp_path / "t", chunk_rows=100)
        expected = list(handle.to_relation().rows())
        handle.close()
        self._downgrade_to_v1(tmp_path / "t")
        v1 = open_store(tmp_path / "t")
        try:
            assert v1.chunk_zone("a", 0) is None
            stats = ScanStats()
            scan = scan_store(v1, where="a >= 250 AND a < 260", stats=stats)
            assert stats.chunks_skipped == 0  # no zones, never skips
            assert list(scan.rows()) == [
                row for row in expected if 250 <= row[0] < 260
            ]
        finally:
            v1.close()

    def test_unsupported_version_rejected(self, tmp_path):
        handle = write_store(_clustered(chunks=1), tmp_path / "t", chunk_rows=100)
        handle.close()
        path = tmp_path / "t" / "manifest.json"
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreFormatError, match="unsupported store version 99"):
            StoreManifest.load(tmp_path / "t")


class TestDatabaseIntegration:
    def test_store_cache_opens_once(self, store):
        db = Database.from_relations()
        first = db._open_store(store.directory)
        second = db._open_store(str(store.directory))
        assert first is second
        db.attach_store(store.directory)
        assert db.catalog.table(store.name) is first

    def test_query_reads_only_unrefuted_chunks(self, store, monkeypatch):
        """``db.query`` over an attached store reads only the chunks the
        zone maps cannot refute."""
        db = Database.from_relations()
        db.attach_store(store)
        read: list[int] = []
        chunk_relation = store.chunk_relation

        def reading(chunk, attrs=None):
            read.append(chunk)
            return chunk_relation(chunk, attrs)

        monkeypatch.setattr(store, "chunk_relation", reading)
        result = db.query("SELECT a, b FROM t WHERE a >= 250 AND a < 260 ORDER BY a")
        assert [row[0] for row in result.rows] == list(range(250, 260))
        assert read == [2]

    def test_query_store_shim_matches_query(self, store):
        """The ``query_store`` shim and ``db.query`` take the same path."""
        db = Database.from_relations()
        db.attach_store(store)
        sql = "SELECT b, COUNT(*) FROM t WHERE a < 150 GROUP BY b ORDER BY b"
        want = execute_on_relation(store.to_relation(), sql)
        assert query_store(store, sql).rows == db.query(sql).rows == want.rows

    def test_explain_reports_store_scan(self, store):
        db = Database.from_relations()
        db.attach_store(store)
        text = db.explain("SELECT a FROM t WHERE a >= 250 AND a < 260")
        assert "scan t: store-backed, zone maps skip 9/10 chunks" in text

    def test_attach_replace_reroutes_every_path(self, tmp_path):
        """After ``replace=True`` the query and EXPLAIN both read the new
        store; the replaced one is gone from SQL."""
        first = write_store(
            Relation.from_columns("t", {"x": list(range(10))}),
            tmp_path / "first",
            chunk_rows=4,
        )
        second = write_store(
            Relation.from_columns("t", {"x": list(range(100, 105))}),
            tmp_path / "second",
            chunk_rows=2,
        )
        try:
            db = Database.from_relations()
            db.attach_store(first)
            db.attach_store(second, replace=True)
            assert db.query("SELECT COUNT(*), MIN(x) FROM t").rows == ((5, 100),)
            text = db.explain("SELECT x FROM t WHERE x >= 100")
            assert "zone maps skip 0/3 chunks" in text
            assert db.catalog.table("t") is second
        finally:
            first.close()
            second.close()

    def test_failed_attach_registers_nothing(self, store):
        """A name clash raises and leaves the catalog exactly as it was."""
        relation = Relation.from_columns("t", {"a": [-1, -2], "b": ["x", "y"]})
        db = Database.from_relations(relation)
        with pytest.raises(DuplicateRelationError):
            db.attach_store(store)
        assert db.catalog.relation("t") is relation
        assert db.query("SELECT COUNT(*), MIN(a) FROM t").rows == ((2, -2),)
        text = db.explain("SELECT a FROM t WHERE a >= 250")
        assert "scan t: in-memory relation (no zone maps)" in text

    def test_attached_store_stays_out_of_the_relations(self, store):
        """Only SQL sees a store: no relation, FD or saved CSV for it."""
        db = Database.from_relations(Relation.from_columns("r", {"x": [1]}))
        db.attach_store(store)
        assert db.table_names() == ["r", "t"]
        assert db.catalog.relation_names() == ["r"]
        assert "t" not in db.catalog

    def test_explain_in_memory_relation(self):
        db = Database.from_relations(
            Relation.from_columns("r", {"x": [1, 2, 3]})
        )
        text = db.explain("SELECT x FROM r WHERE x > 1")
        assert "scan r: in-memory relation (no zone maps)" in text


class TestQueryStoreEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, c FROM t WHERE a >= 420 AND a < 440 ORDER BY a",
            "SELECT b, COUNT(*) FROM t WHERE a < 310 GROUP BY b ORDER BY b",
            "SELECT a FROM t WHERE b = 's3' AND a > 900 ORDER BY a",
            "SELECT a FROM t WHERE c IS NULL AND a < 50 ORDER BY a",
        ],
    )
    def test_on_off_identical(self, backend, store, sql):
        with use_engine(backend=backend):
            on = query_store(store, sql)
            oracle = execute_on_relation(store.to_relation(), sql)
        assert on.columns == oracle.columns
        assert on.rows == oracle.rows


class TestWhereEvaluatedOnce:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "sql, chunks",
        [
            ("SELECT a, b FROM t WHERE a >= 250 AND a < 260", 1),
            ("SELECT b, COUNT(*) FROM t WHERE a < 310 GROUP BY b ORDER BY b", 4),
        ],
    )
    def test_pushed_where_runs_once_per_surviving_chunk(
        self, backend, store, monkeypatch, sql, chunks
    ):
        """The WHERE fused into the store scan is evaluated once per
        surviving chunk and never again over the survivors."""
        calls: list[int] = []
        filter_rows = ir.filter_rows

        def counting(relation, predicate):
            calls.append(relation.num_rows)
            return filter_rows(relation, predicate)

        monkeypatch.setattr(ir, "filter_rows", counting)
        db = Database.from_relations()
        db.attach_store(store)
        with use_engine(backend=backend):
            db.query(sql)
            assert calls == [100] * chunks
            calls.clear()
            query_store(store, sql)
        assert calls == [100] * chunks


# ----------------------------------------------------------------------
# Store ≡ memory: the same SQL over an attached store and over its rows
# ----------------------------------------------------------------------
_SAFE_CONJUNCTS = (
    "a >= {k}",
    "a < {k}",
    "a = {k}",
    "{k} > a",
    "b = 'v'",
    "b IN ('u', 'w')",
    "NOT (b IN ('u'))",
    "a IS NULL",
    "b IS NOT NULL",
    "NOT (a = {k})",
    "(a < {k} OR b = 'u')",
)
#: Conjuncts that raise on some rows: a string ordered against a number,
#: division by zero, and an order comparison across the two columns.
_RAISING_CONJUNCTS = ("b > {k}", "a / 0 > 1", "a < b")


@st.composite
def _store_rows(draw):
    n = draw(st.integers(0, 30))
    a = draw(st.lists(st.one_of(st.none(), st.integers(0, 20)), min_size=n, max_size=n))
    if draw(st.booleans()):
        # Clustered keys make the zone maps refute whole chunks.
        a = sorted(a, key=lambda v: (v is not None, v))
    b = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["u", "v", "w"])),
            min_size=n,
            max_size=n,
        )
    )
    chunk_rows = draw(st.sampled_from([1, 3, 7, 64]))
    return Relation.from_columns("t", {"a": a, "b": b}), chunk_rows


@st.composite
def _where(draw):
    pool = draw(
        st.lists(
            st.sampled_from(_SAFE_CONJUNCTS + _RAISING_CONJUNCTS),
            min_size=0,
            max_size=3,
        )
    )
    conjuncts = [c.format(k=draw(st.integers(-1, 21))) for c in pool]
    return f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""


_STATEMENTS = (
    "SELECT a, b FROM t{where}",
    "SELECT * FROM t{where} ORDER BY b DESC, a",
    "SELECT COUNT(*) FROM t{where}",
    "SELECT b, COUNT(*), SUM(a), MIN(a) FROM t{where} GROUP BY b ORDER BY b",
    "SELECT DISTINCT b FROM t{where} LIMIT 2",
    "SELECT t.a, u.y FROM t JOIN u ON t.a = u.k{where}",
    "SELECT t.b, u.y FROM t LEFT JOIN u ON t.a = u.k{where}",
    "SELECT u.y, t.b FROM u JOIN t ON u.k = t.a{where}",
    "SELECT u.k, COUNT(*) FROM u JOIN t ON u.k = t.a{where} GROUP BY u.k ORDER BY u.k",
)

#: The in-memory table joined against the store (both sides are tried).
_U = Relation.from_columns(
    "u", {"k": [0, 1, 2, 3, 5, 8, 13, None], "y": list("pqrstuvw")}
)


def _outcome(db: Database, sql: str):
    try:
        result = db.query(sql)
    except ReproError as error:
        return ("error", type(error).__name__, str(error))
    return (result.columns, result.rows)


class TestStoreEqualsMemory:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=80, deadline=None)
    @given(
        rows=_store_rows(),
        where=_where(),
        template=st.sampled_from(_STATEMENTS),
    )
    def test_same_sql_same_outcome(self, backend, rows, where, template):
        """Columns, rows and error messages are byte-identical whether
        ``t`` is an attached store or the same rows in memory — with
        may-raise conjuncts before refuting ones, the store on either
        side of a join, and ``COUNT(*)`` with no column reference."""
        relation, chunk_rows = rows
        sql = template.format(where=where)
        with tempfile.TemporaryDirectory() as scratch:
            store = write_store(relation, Path(scratch) / "t", chunk_rows=chunk_rows)
            try:
                on_store = Database.from_relations(_U)
                on_store.attach_store(store)
                in_memory = Database.from_relations(_U, relation)
                with use_engine(backend=backend):
                    assert _outcome(on_store, sql) == _outcome(in_memory, sql)
            finally:
                store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "where",
        [
            "a",
            "1",
            "a = 1 AND a + 1",
            "NOT (a + 1)",
            "(a = 1) = 2",
            "(a < 2) IN (1)",
            "(a = 1) IS NULL",
            "a + (b = 'u') > 0",
        ],
    )
    def test_ill_formed_where_same_error(self, backend, store, where):
        """A WHERE that is not a predicate over operands fails with the
        same message over the store as in memory, and EXPLAIN claims no
        skip for it (the executor does not push it into the scan)."""
        sql = f"SELECT a FROM t WHERE {where}"
        on_store = Database.from_relations()
        on_store.attach_store(store)
        in_memory = Database.from_relations(store.to_relation())
        with use_engine(backend=backend):
            assert _outcome(on_store, sql) == _outcome(in_memory, sql)
        assert "zone maps skip 0/10 chunks" in on_store.explain(
            f"SELECT a FROM t WHERE a < 0 AND ({where})"
        )
