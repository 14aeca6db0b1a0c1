"""Extension snapshots share an append-only column log, yet stay immutable.

``Relation.extend`` appends to storage shared along the extension
chain: only the chain head appends in place, and extending any other
snapshot (a second branch) copies first.  The properties here build
random extension *trees* — non-head snapshots extended, both branches
extended, NULLs and new values interleaved — and require every node,
parents included after their children exist, to be indistinguishable
from a cold ``Relation.from_rows`` over the node's rows, on both kernel
backends.  The allocation test pins the O(Δ) cost of a steady extend
without any timing.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.relational import kernels
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

BACKENDS = kernels.available_backends()
SCHEMA = RelationSchema("t", ["A", "B"])
#: Values the trees draw from, plus ones no node ever holds.
UNIVERSE = [None, *range(8), 99, "x"]

values = st.one_of(st.none(), st.integers(0, 7))
rows = st.lists(st.tuples(values, values), max_size=6)
trees = st.tuples(
    rows,
    # (which existing node to extend, batch, warm the child's caches?)
    st.lists(st.tuples(st.integers(0, 50), rows, st.booleans()), max_size=8),
)


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_engine(backend=request.param):
        yield request.param


def _assert_matches_cold(relation: Relation, node_rows: list) -> None:
    cold = Relation.from_rows(SCHEMA, node_rows, validate=False)
    for attr in SCHEMA.attribute_names:
        column, expected = relation.column(attr), cold.column(attr)
        assert len(column) == len(expected)
        assert column.codes == expected.codes
        assert column.dictionary == expected.dictionary
        assert list(column.kernel_codes()) == list(expected.kernel_codes())
        assert column.cardinality == expected.cardinality
        assert column.null_count == expected.null_count
        for value in UNIVERSE:
            assert column.code_for(value) == expected.code_for(value)


@given(trees)
@settings(max_examples=40, deadline=None)
def test_extension_tree_nodes_match_cold(tree):
    seed_rows, steps = tree
    for name in BACKENDS:
        with use_engine(backend=name):
            nodes = [(Relation.from_rows(SCHEMA, seed_rows, validate=False), seed_rows)]
            for pick, batch, warm in steps:
                parent, parent_rows = nodes[pick % len(nodes)]
                child = parent.extend(batch, validate=False)
                child_rows = parent_rows + batch
                if warm:
                    child.count_distinct(["A", "B"])
                    child.stripped_partition(["A"])
                _assert_matches_cold(child, child_rows)
                nodes.append((child, child_rows))
            for relation, node_rows in nodes:  # parents, after their children
                _assert_matches_cold(relation, node_rows)


def test_both_branches_of_one_parent_stay_separate(backend):
    parent = Relation.from_rows(SCHEMA, [(1, 1), (2, None)], validate=False)
    head = parent.extend([(3, 1)], validate=False)
    branch = parent.extend([(4, 5)], validate=False)  # parent is no longer head
    head_child = head.extend([(5, None)], validate=False)
    branch_child = branch.extend([(3, 3)], validate=False)
    assert parent.column("A").code_for(3) is None
    assert head.column("A").code_for(5) is None
    assert branch.column("A").code_for(3) is None
    assert head_child.column("A").values() == [1, 2, 3, 5]
    assert branch_child.column("A").values() == [1, 2, 4, 3]
    assert branch_child.column("A").code_for(3) == 3
    assert branch_child.column("B").values() == [1, None, 5, 3]


def test_extended_column_refuses_in_place_append():
    relation = Relation.from_rows(SCHEMA, [(1, 1)], validate=False)
    column = relation.extend([(2, 2)], validate=False).column("A")
    with pytest.raises(TypeError):
        column.append_value(3)


def test_concurrent_extends_of_one_snapshot_stay_separate(backend):
    """Threads racing to extend the current head each get their own
    rows: one appends in place, the others must branch off."""
    relation = Relation.from_rows(SCHEMA, [(i % 5, i % 3) for i in range(50)])
    shared = {"head": relation.extend([(1, 1)], validate=False)}
    errors: list[str] = []
    workers = 8
    barrier = threading.Barrier(workers, timeout=60)

    def work(worker: int) -> None:
        barrier.wait()
        for step in range(200):
            parent = shared["head"]
            batch = [(1000 * worker + 10 * step + i, None) for i in range(3)]
            try:
                child = parent.extend(batch, validate=False)
                column = child.column("A")
                rows = range(parent.num_rows, len(column))
                tail = [column.value(row) for row in rows]
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(f"worker {worker} step {step}: {error!r}")
                return
            if tail != [row[0] for row in batch]:
                errors.append(f"worker {worker} step {step}: {tail}")
            shared["head"] = child

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@pytest.mark.skipif(not kernels.numpy_available(), reason="NumPy not installed")
def test_steady_extend_allocates_o_delta():
    """One 10-row extend of a 100K-row, 8-column chain head with
    promoted trackers allocates far less than one column's codes.

    Reintroducing a per-extend O(n) copy of any column (its code array,
    code list, dictionary or reverse map) fails this bound."""
    n = 100_000
    names = [f"c{i}" for i in range(8)]
    columns = {
        name: [(row * (7 + 2 * i)) % (1_000 + 997 * i) for row in range(n)]
        for i, name in enumerate(names)
    }
    with use_engine(backend="numpy"):
        relation = Relation.from_columns("t", columns)
        relation.count_distinct(["c0", "c1"])
        relation.count_distinct(["c2", "c3", "c4"])
        relation.stripped_partition(["c5"])
        relation.stats.track(["c6", "c7"])
        batch = [tuple(row % 13 for _ in names) for row in range(10)]
        head = relation.extend(batch)  # seeds the log, promotes trackers
        assert head.stats.tracked_sets == 4
        tracemalloc.start()
        try:
            child = head.extend(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert child.num_rows == n + 20
    assert peak < 8 * n // 4, f"extend allocated {peak} bytes at peak"
