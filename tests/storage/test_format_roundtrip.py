"""Round-trip property suite for the chunked on-disk store.

The storage contract (ISSUE 9): writing a relation to disk and reading
it back — whole, chunk-at-a-time, or through the global code space —
reproduces the relation **value-for-value on both backends**, for any
chunk size (including the ±1 boundary cases), any column type mix, and
NULL/NaN payloads.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.relational import kernels
from repro.relational.relation import Relation
from repro.storage import (
    StoreFormatError,
    StoreWriter,
    open_store,
    write_store,
)
from repro.storage.format import codes_path

BACKENDS = kernels.available_backends()

_NAN = float("nan")


def _column_values(kind: str, draw, n: int) -> list:
    if kind == "int":
        return [draw(st.integers(-50, 50)) for _ in range(n)]
    if kind == "float":
        return [
            float(draw(st.integers(-20, 20))) / 4.0 for _ in range(n)
        ]
    if kind == "nullable":
        return [
            None if draw(st.booleans()) else f"s{draw(st.integers(0, 6))}"
            for _ in range(n)
        ]
    return [f"v{draw(st.integers(0, 8))}" for _ in range(n)]


@st.composite
def stored_relations(draw):
    """A small mixed-type relation plus a chunk size to store it with."""
    num_rows = draw(st.integers(0, 40))
    kinds = draw(
        st.lists(
            st.sampled_from(["str", "int", "float", "nullable"]),
            min_size=1,
            max_size=4,
        )
    )
    columns = {
        f"A{index}": _column_values(kind, draw, num_rows)
        for index, kind in enumerate(kinds)
    }
    chunk_rows = draw(st.integers(1, 16))
    return Relation.from_columns("rand", columns), chunk_rows


def _rows_equal(left, right) -> bool:
    if len(left) != len(right):
        return False
    for lrow, rrow in zip(left, right):
        for lval, rval in zip(lrow, rrow):
            if isinstance(lval, float) and isinstance(rval, float):
                if math.isnan(lval) and math.isnan(rval):
                    continue
            if lval != rval:
                return False
    return True


class TestRoundTrip:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stored_relations())
    def test_write_read_identical_on_both_backends(self, case):
        relation, chunk_rows = case
        original = list(relation.rows())
        with tempfile.TemporaryDirectory() as tmp:
            store = write_store(relation, tmp, chunk_rows=chunk_rows)
            try:
                for backend in BACKENDS:
                    with use_engine(backend=backend):
                        assert _rows_equal(
                            list(store.to_relation().rows()), original
                        )
            finally:
                store.close()

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stored_relations())
    def test_chunk_relations_concatenate_to_original(self, case):
        relation, chunk_rows = case
        original = list(relation.rows())
        with tempfile.TemporaryDirectory() as tmp:
            with write_store(relation, tmp, chunk_rows=chunk_rows) as store:
                assert store.num_chunks == -(-relation.num_rows // chunk_rows)
                assert sum(store.chunk_sizes) == relation.num_rows
                rebuilt = [
                    tuple(row)
                    for chunk in store.iter_chunk_relations()
                    for row in chunk.rows()
                ]
                assert _rows_equal(rebuilt, original)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stored_relations())
    def test_global_codes_decode_to_original(self, case):
        relation, chunk_rows = case
        with tempfile.TemporaryDirectory() as tmp:
            with write_store(relation, tmp, chunk_rows=chunk_rows) as store:
                names = store.attribute_names
                per_backend = []
                for backend in BACKENDS:
                    with use_engine(backend=backend):
                        codes = [
                            [list(col) for col in cols]
                            for _, cols in store.iter_global_codes(names)
                        ]
                    per_backend.append(codes)
                # identical global codes under every backend
                for other in per_backend[1:]:
                    assert other == per_backend[0]
                decoded = []
                for chunk_codes in per_backend[0]:
                    for row in zip(*chunk_codes):
                        decoded.append(
                            tuple(
                                store.global_value(name, code)
                                for name, code in zip(names, row)
                            )
                        )
                assert _rows_equal(decoded, list(relation.rows()))


class TestChunkBoundaries:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_rows_around_row_count(self, tmp_path, backend, delta):
        n = 12
        relation = Relation.from_columns(
            "edge",
            {
                "A": [f"a{i % 5}" for i in range(n)],
                "B": list(range(n)),
            },
        )
        chunk_rows = n + delta
        with write_store(
            relation, tmp_path / f"s{delta}", chunk_rows=chunk_rows
        ) as store:
            expected_chunks = -(-n // chunk_rows)
            assert store.num_chunks == expected_chunks
            with use_engine(backend=backend):
                assert list(store.to_relation().rows()) == list(
                    relation.rows()
                )

    def test_empty_relation(self, tmp_path):
        relation = Relation.from_columns("empty", {"A": [], "B": []})
        with write_store(relation, tmp_path / "empty") as store:
            assert store.num_rows == 0
            assert store.num_chunks == 0
            assert list(store.to_relation().rows()) == []


class TestNullAndNan:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_null_and_nan_round_trip(self, tmp_path, backend):
        values = ["x", None, "y", None, "x", "z"]
        floats = [1.5, _NAN, 2.5, _NAN, 1.5, 0.0]
        relation = Relation.from_columns(
            "nulls", {"S": values, "F": floats}
        )
        with write_store(relation, tmp_path / "n", chunk_rows=2) as store:
            assert store.null_count("S") == 2
            assert store.cardinality("S") == 3
            with use_engine(backend=backend):
                got = list(store.to_relation().rows())
        assert [row[0] for row in got] == values
        for got_f, want_f in zip((row[1] for row in got), floats):
            if math.isnan(want_f):
                assert math.isnan(got_f)
            else:
                assert got_f == want_f

    def test_nan_values_share_one_dictionary_entry(self, tmp_path):
        relation = Relation.from_columns(
            "nan", {"F": [float("nan"), float("nan"), 1.0]}
        )
        with write_store(relation, tmp_path / "nan") as store:
            # distinct NaN objects serialize identically and merge
            assert store.cardinality("F") == 2


class TestManifestAccounting:
    def test_counts_match_relation(self, tmp_path):
        relation = Relation.from_columns(
            "acct",
            {
                "A": ["a", "b", "a", None, "c", "b"],
                "B": [1, 1, 2, 3, 2, 1],
            },
        )
        with write_store(relation, tmp_path / "m", chunk_rows=4) as store:
            manifest = store.manifest
            assert manifest.num_rows == 6
            assert manifest.chunk_sizes == [4, 2]
            assert store.cardinality("A") == 3
            assert store.null_count("A") == 1
            assert store.cardinality("B") == 3
            assert manifest.materialized_bytes() > manifest.codes_bytes()

    def test_adopt_into_extends_head(self, tmp_path):
        relation = Relation.from_columns(
            "adopt",
            {"A": [f"a{i % 3}" for i in range(10)], "B": list(range(10))},
        )
        with write_store(relation, tmp_path / "a", chunk_rows=3) as store:
            head = store.chunk_relation(0)
            grown = store.adopt_into(head, start_chunk=1)
            assert grown.num_rows == relation.num_rows
            assert list(grown.rows()) == list(relation.rows())


class TestFormatErrors:
    def test_corrupt_magic_raises(self, tmp_path):
        relation = Relation.from_columns("c", {"A": ["x", "y"]})
        write_store(relation, tmp_path / "c").close()
        path = codes_path(Path(tmp_path / "c"), 0)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"BAD!"
        path.write_bytes(bytes(blob))
        store = open_store(tmp_path / "c")
        with pytest.raises(StoreFormatError):
            store.chunk_relation(0)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises((StoreFormatError, FileNotFoundError)):
            open_store(tmp_path / "nowhere")

    def test_writer_rejects_rows_after_finalize(self, tmp_path):
        relation = Relation.from_columns("w", {"A": ["x"]})
        writer = StoreWriter(tmp_path / "w", relation.schema, chunk_rows=4)
        writer.append_rows(relation.rows())
        writer.finalize().close()
        with pytest.raises(Exception):
            writer.append_row(("y",))
