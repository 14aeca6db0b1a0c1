"""Per-chunk zone maps: content, refutation, and the optimize-off oracle.

Stores written at format v2 carry a :class:`ChunkZone` per chunk per
column (value range, null count, small-dict members, code span).
``scan_store`` consults them to skip chunks the pushed-down predicate
refutes — and must do so *invisibly*: identical rows and identical
error messages to the unoptimized scan, v1 manifests still readable.
"""

from __future__ import annotations

import json

import pytest

from repro.relational import kernels
from repro.relational.errors import ReproError
from repro.relational.relation import Relation
from repro.sql.database import Database
from repro.sql.optimize import use_optimize
from repro.storage.format import StoreFormatError, StoreManifest
from repro.storage.reader import open_store
from repro.storage.sqlbridge import (
    ScanStats,
    count_skippable_chunks,
    query_store,
    scan_store,
)
from repro.storage.writer import ZONE_MEMBER_LIMIT, write_store

BACKENDS = kernels.available_backends()


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
        with kernels.use_backend(backend):
            scan = scan_store(
                store, where="a >= 250 AND a < 260", stats=stats
            )
        assert scan.num_rows == 10
        assert (stats.chunks_total, stats.chunks_skipped) == (10, 9)
        assert stats.chunks_scanned == 1

    def test_member_refutation_skips_everything(self, backend, store):
        stats = ScanStats()
        with kernels.use_backend(backend):
            scan = scan_store(store, where="b = 'zzz'", stats=stats)
        assert scan.num_rows == 0
        assert stats.chunks_skipped == 10

    def test_optimize_off_is_the_oracle(self, backend, store):
        with kernels.use_backend(backend):
            on_stats, off_stats = ScanStats(), ScanStats()
            on = scan_store(store, where="a >= 250 AND a < 260", stats=on_stats)
            with use_optimize("off"):
                off = scan_store(
                    store, where="a >= 250 AND a < 260", stats=off_stats
                )
        assert list(on.rows()) == list(off.rows())
        assert on_stats.chunks_skipped == 9
        assert off_stats.chunks_skipped == 0

    def test_may_raise_conjunct_blocks_skip(self, backend, store):
        """``b > 5`` raises on every chunk; a refuting conjunct *after*
        it must not skip the chunk (the error is reachable)."""
        with kernels.use_backend(backend):
            stats = ScanStats()
            with pytest.raises(ReproError) as optimized:
                scan_store(store, where="b > 5 AND a < 0", stats=stats)
            assert stats.chunks_skipped == 0
            with use_optimize("off"), pytest.raises(ReproError) as oracle:
                scan_store(store, where="b > 5 AND a < 0")
        assert str(optimized.value) == str(oracle.value)

    def test_refuting_conjunct_makes_later_errors_unreachable(
        self, backend, store
    ):
        """``a < 0`` refutes every chunk first, so ``b > 5`` can never
        raise — all chunks skip, exactly as the oracle returns no rows."""
        with kernels.use_backend(backend):
            stats = ScanStats()
            scan = scan_store(store, where="a < 0 AND b > 5", stats=stats)
            with use_optimize("off"):
                oracle = scan_store(store, where="a < 0 AND b > 5")
        assert stats.chunks_skipped == 10
        assert list(scan.rows()) == list(oracle.rows()) == []

    def test_null_aware_refutation(self, backend, store):
        with kernels.use_backend(backend):
            stats = ScanStats()
            scan = scan_store(store, where="a IS NULL", stats=stats)
        assert scan.num_rows == 0
        assert stats.chunks_skipped == 10  # null_count == 0 everywhere

    def test_count_skippable_chunks_matches_scan(self, backend, store):
        with kernels.use_backend(backend):
            dry = count_skippable_chunks(store, "a >= 250 AND a < 260")
            live = ScanStats()
            scan_store(store, where="a >= 250 AND a < 260", stats=live)
        assert (dry.chunks_total, dry.chunks_skipped) == (
            live.chunks_total,
            live.chunks_skipped,
        )


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
        assert db.store(store.name) is first

    def test_query_store_reports_skips(self, store):
        db = Database.from_relations()
        db.attach_store(store)
        stats = ScanStats()
        result = db.query_store(
            "SELECT a, b FROM t WHERE a >= 250 AND a < 260 ORDER BY a",
            scan_stats=stats,
        )
        assert [row[0] for row in result.rows] == list(range(250, 260))
        assert (stats.chunks_total, stats.chunks_skipped) == (10, 9)

    def test_query_store_matches_query(self, store):
        db = Database.from_relations()
        db.attach_store(store)
        sql = "SELECT b, COUNT(*) FROM t WHERE a < 150 GROUP BY b ORDER BY b"
        assert db.query_store(sql).rows == db.query(sql).rows

    def test_explain_reports_store_scan(self, store):
        db = Database.from_relations()
        db.attach_store(store)
        text = db.explain("SELECT a FROM t WHERE a >= 250 AND a < 260")
        assert "scan t: store-backed, zone maps skip 9/10 chunks" in text

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
        with kernels.use_backend(backend):
            on = query_store(store, sql)
            with use_optimize("off"):
                off = query_store(store, sql)
        assert on.columns == off.columns
        assert on.rows == off.rows
