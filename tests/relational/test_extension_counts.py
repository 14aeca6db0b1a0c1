"""``RelationStatistics.extension_counts`` equals raw distinct counting.

The repair search scores each candidate ``A`` by ``|π_XA|`` and
``|π_XAY|``, answered off the cached π_X by the backends'
``extension_errors`` kernel without building π_XA.  Every case here —
random relations with NULLs, keys (π_X with no covered rows), empty and
one-row relations, multi-attribute Y, the numpy pack-overflow fallback
and candidate blocks — must agree with ``count_distinct_raw`` on every
backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.relational import kernels
from repro.relational.relation import Relation

BACKENDS = kernels.available_backends()
numpy_only = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


def raw_counts(relation, x, candidates, y):
    return [
        (
            relation.count_distinct_raw([*x, a]),
            relation.count_distinct_raw([*x, a, *y]),
        )
        for a in candidates
    ]


def assert_matches(relation, x, candidates, y):
    relation.stats.clear()
    counts = relation.stats.extension_counts(x, candidates, y)
    assert counts == raw_counts(relation, x, candidates, y)
    return counts


@st.composite
def relation_and_split(draw):
    """A relation with NULLs plus a disjoint (X, candidates, Y) split."""
    num_attrs = draw(st.integers(3, 6))
    num_rows = draw(st.integers(0, 30))
    columns = {}
    for index in range(num_attrs):
        cardinality = draw(st.integers(1, 6))
        cell = st.one_of(st.none(), st.integers(0, cardinality - 1))
        columns[f"A{index}"] = draw(
            st.lists(cell, min_size=num_rows, max_size=num_rows)
        )
    relation = Relation.from_columns("r", columns)
    names = draw(st.permutations(list(relation.attribute_names)))
    x_size = draw(st.integers(0, num_attrs - 2))
    y_size = draw(st.integers(1, min(2, num_attrs - x_size - 1)))
    x = names[:x_size]
    y = names[x_size : x_size + y_size]
    return relation, x, names[x_size + y_size :], y


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=relation_and_split())
@settings(max_examples=60, deadline=None)
def test_matches_raw_counts(backend, case):
    relation, x, candidates, y = case
    with use_engine(backend=backend):
        assert_matches(relation, x, candidates, y)


@pytest.mark.parametrize("backend", BACKENDS)
def test_key_antecedent_has_no_covered_rows(backend):
    relation = Relation.from_columns(
        "r",
        {"K": [1, 2, 3, 4], "A": [1, 1, 2, 2], "B": [5, 5, 5, 6], "Y": [0, 1, 0, 1]},
    )
    with use_engine(backend=backend):
        assert relation.stripped_partition(["K"]).covered_rows == 0
        assert assert_matches(relation, ["K"], ["A", "B"], ["Y"]) == [(4, 4), (4, 4)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rows", [[], [(1, 2, 3, 4)]])
def test_empty_and_one_row_relations(backend, rows):
    relation = Relation.from_rows("r", rows, attributes=["X", "A", "B", "Y"])
    with use_engine(backend=backend):
        counts = assert_matches(relation, ["X"], ["A", "B"], ["Y"])
    assert counts == [(len(rows), len(rows))] * 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_multi_attribute_and_empty_y_with_nulls(backend):
    relation = Relation.from_columns(
        "r",
        {
            "X": [1, 1, 1, 1, 2, 2, None, None],
            "A": [None, None, 1, 1, 2, None, 3, 3],
            "B": [7, 8, 7, 8, 7, 7, 7, 7],
            "Y1": [0, 0, 1, 1, 0, 0, None, 1],
            "Y2": [5, 6, 5, 5, None, None, 5, 5],
        },
    )
    with use_engine(backend=backend):
        assert_matches(relation, ["X"], ["A", "B"], ["Y1", "Y2"])
        assert_matches(relation, ["X", "B"], ["A"], ["Y1", "Y2"])
        assert_matches(relation, [], ["A", "B", "X"], ["Y1", "Y2"])
        assert_matches(relation, ["X"], ["A", "B"], [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_counts_are_memoized_and_nothing_is_materialized(backend):
    relation = Relation.from_columns(
        "r",
        {
            "X": [1, 1, 2, 2, 2],
            "A": [1, 2, 1, 1, 2],
            "B": [0, 0, 0, 1, 1],
            "Y": [3, 3, 4, 4, 5],
        },
    )
    with use_engine(backend=backend):
        relation.stats.clear()
        relation.stats.extension_counts(["X"], ["A", "B"], ["Y"])
        # One count query per distinct missing set: XA, XAY, XB, XBY.
        assert relation.stats.executed_count_queries == 4
        assert relation.stats.cached_partition(["X", "A"]) is None
        assert relation.stats.cached_partition(["X", "A", "Y"]) is None
        assert relation.stats.partitions_built == 1  # π_X only
        relation.stats.extension_counts(["X"], ["A", "B"], ["Y"])
        assert relation.stats.executed_count_queries == 4
        assert relation.count_distinct(["X", "B", "Y"]) == 4
        assert relation.stats.executed_count_queries == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_count_queries_equal_per_set_counting(backend):
    relation = Relation.from_columns(
        "r",
        {"X": [1, 1, 2, 2], "A": [1, 2, 1, 1], "B": [0, 0, 0, 1], "Y": [3, 3, 4, 4]},
    )
    with use_engine(backend=backend):
        relation.stats.clear()
        relation.count_distinct(["X", "A"])  # already memoized: no query
        relation.stats.extension_counts(["X"], ["A", "B"], ["Y"])
        batched = relation.stats.executed_count_queries
        relation.stats.clear()
        for a in ("A", "B"):
            relation.count_distinct(["X", a])
            relation.count_distinct(["X", a, "Y"])
        assert batched == relation.stats.executed_count_queries == 4


# ----------------------------------------------------------------------
# numpy kernel internals: the pack-overflow fallback and blocking
# ----------------------------------------------------------------------
def _wide_relation(num_rows, num_candidates, cardinality):
    columns = {"X": [row % 7 for row in range(num_rows)]}
    for index in range(num_candidates):
        columns[f"C{index}"] = [
            (row * (index + 3) + index) % cardinality for row in range(num_rows)
        ]
    columns["Y"] = [(row // 3) % 5 for row in range(num_rows)]
    return Relation.from_columns("wide", columns)


@numpy_only
def test_pack_overflow_falls_back_to_lexsort():
    """High-span code columns overflow the packed int64 key, so the
    kernel counts per candidate through the lexsort path."""
    import numpy as np

    from repro.relational.kernels import numpy_backend, python_backend

    rng = np.random.default_rng(3)
    n = 400
    x = rng.integers(0, 5, n)
    y = rng.integers(0, 3, n)
    high = [rng.integers(0, 4, n) * (1 << 61) // 3 for _ in range(3)]
    low = rng.integers(0, 4, n)
    candidates = [*high, low]
    reference = python_backend.stripped_from_codes(x.tolist())
    expected = python_backend.extension_errors(
        reference, [c.tolist() for c in candidates], [y.tolist()]
    )
    partition = numpy_backend.stripped_from_codes(x)
    spans = [int(c.max()) - int(c.min()) + 1 for c in candidates]
    assert (partition.num_classes) * max(spans) > numpy_backend._PACK_LIMIT
    assert numpy_backend.extension_errors(partition, candidates, [y]) == expected


@numpy_only
def test_high_cardinality_columns_with_forced_fallback(monkeypatch):
    from repro.relational.kernels import numpy_backend

    relation = _wide_relation(300, 4, cardinality=250)
    monkeypatch.setattr(numpy_backend, "_PACK_LIMIT", 1)
    with use_engine(backend="numpy"):
        assert_matches(relation, ["X"], ["C0", "C1", "C2", "C3"], ["Y"])


@numpy_only
@pytest.mark.parametrize("cap", [1, 700, 2_000])
def test_candidates_crossing_the_block_cap(monkeypatch, cap):
    from repro.relational.kernels import numpy_backend

    relation = _wide_relation(600, 9, cardinality=40)
    monkeypatch.setattr(numpy_backend, "_EXTENSION_BLOCK", cap)
    with use_engine(backend="numpy"):
        assert_matches(relation, ["X"], [f"C{i}" for i in range(9)], ["Y"])


@numpy_only
def test_candidates_crossing_the_default_block_cap():
    from repro.relational.kernels import numpy_backend

    num_rows, num_candidates = 40_000, 27
    assert num_rows * num_candidates > numpy_backend._EXTENSION_BLOCK
    relation = _wide_relation(num_rows, num_candidates, cardinality=997)
    candidates = [f"C{i}" for i in range(num_candidates)]
    with use_engine(backend="numpy"):
        assert_matches(relation, ["X"], candidates, ["Y"])
