"""Property tests: the delta engine is equivalent to cold computation.

Same discipline as ``test_kernel_equivalence.py``: every statistic a
delta-extended relation serves — columns, distinct counts, stripped
partitions, entropies, agreeing/violating-pair counts — must be
indistinguishable from building the concatenated relation cold, on
both kernel backends.  Single-attribute partitions must match cold
construction class-for-class (first-seen order); multi-attribute
partitions are compared as sets of classes with all counting scalars
exact (cold class order depends on which refinement path the lattice
took — the documented comparison discipline).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.eb.entropy import entropy, entropy_of
from repro.fd.fd import fd
from repro.fd.measures import count_violating_pairs
from repro.relational import kernels
from repro.relational.delta import DeltaStream, GroupTracker
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

BACKENDS = kernels.available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_engine(backend=request.param):
        yield request.param


def canonical(partition):
    return {frozenset(cls_rows) for cls_rows in partition.classes}


values = st.one_of(st.none(), st.integers(0, 4))
streams = st.tuples(
    st.lists(values, min_size=0, max_size=40),
    st.integers(1, 6),  # where to cut the seed / extension batches
    st.integers(0, 5),
)


def _rows(column_a, card_b):
    return [
        (a, i % (card_b + 1), (i * 3 + 1) % 4) for i, a in enumerate(column_a)
    ]


def _chain(schema, rows, cut):
    """Seed relation + two extension batches (delta path)."""
    seed = Relation.from_rows(schema, rows[:cut], validate=False)
    # Warm the caches the way a monitoring consumer would.
    seed.count_distinct(["A"])
    seed.count_distinct(["A", "B"])
    seed.stripped_partition(["B"])
    middle = (cut + len(rows)) // 2
    step_one = seed.extend(rows[cut:middle], validate=False)
    return step_one.extend(rows[middle:], validate=False)


@given(streams)
@settings(max_examples=40)
def test_extended_columns_byte_identical(data):
    column_a, cut, card_b = data
    rows = _rows(column_a, card_b)
    schema = RelationSchema("t", ["A", "B", "C"])
    for name in BACKENDS:
        with use_engine(backend=name):
            delta = _chain(schema, rows, min(cut, len(rows)))
            cold = Relation.from_rows(schema, rows, validate=False)
            for attr in schema.attribute_names:
                assert delta.column(attr).codes == cold.column(attr).codes
                assert delta.column(attr).dictionary == cold.column(attr).dictionary
                assert delta.column(attr).null_count == cold.column(attr).null_count


@given(streams)
@settings(max_examples=40)
def test_counts_partitions_entropies_match_cold(data):
    column_a, cut, card_b = data
    rows = _rows(column_a, card_b)
    schema = RelationSchema("t", ["A", "B", "C"])
    for name in BACKENDS:
        with use_engine(backend=name):
            delta = _chain(schema, rows, min(cut, len(rows)))
            cold = Relation.from_rows(schema, rows, validate=False)
            for attrs in (["A"], ["B"], ["A", "B"], ["A", "B", "C"]):
                assert delta.count_distinct(attrs) == cold.count_distinct(attrs)
            # Single attribute: exact class order.
            for attr in ("A", "B"):
                p_delta = delta.stripped_partition([attr])
                p_cold = cold.stripped_partition([attr])
                assert [list(c) for c in p_delta.classes] == [
                    list(c) for c in p_cold.classes
                ]
            # Multi attribute: canonical classes + exact scalars.
            p_delta = delta.stripped_partition(["A", "B"])
            p_cold = cold.stripped_partition(["A", "B"])
            assert canonical(p_delta) == canonical(p_cold)
            assert p_delta.error() == p_cold.error()
            assert p_delta.num_distinct == p_cold.num_distinct
            assert p_delta.covered_rows == p_cold.covered_rows
            assert p_delta.class_sizes() is not None  # materializable
            # Entropies through the tracker fast path.
            tracked = delta.stats.tracked_entropy(["A"])
            if tracked is not None:
                assert tracked == pytest.approx(
                    entropy(cold.stripped_partition(["A"])), abs=1e-9
                )
            assert entropy_of(delta, ["B"]) == pytest.approx(
                entropy(cold.stripped_partition(["B"])), abs=1e-9
            )


@given(streams)
@settings(max_examples=30)
def test_violating_pairs_match_cold(data):
    column_a, cut, card_b = data
    rows = [
        (i % 3, b, c)
        for i, (_, b, c) in enumerate(_rows(column_a, card_b))
    ]
    schema = RelationSchema("t", ["A", "B", "C"])
    dependency = fd("A -> B")
    for name in BACKENDS:
        with use_engine(backend=name):
            seed = Relation.from_rows(
                schema, rows[: min(cut, len(rows))], validate=False
            )
            seed.stats.track(["A"])
            seed.stats.track(["A", "B"])
            delta = seed.extend(rows[min(cut, len(rows)) :], validate=False)
            cold = Relation.from_rows(schema, rows, validate=False)
            assert delta.stats.tracked(["A"]) is not None
            assert count_violating_pairs(delta, dependency) == count_violating_pairs(
                cold, dependency
            )


def _agreeing_pairs(partition):
    return sum(len(c) * (len(c) - 1) // 2 for c in partition.classes)


chains = st.tuples(
    st.lists(st.tuples(values, st.integers(0, 3), st.integers(0, 2)), max_size=40),
    st.lists(st.integers(0, 40), min_size=1, max_size=4),  # batch cut points
)


@given(chains)
@settings(max_examples=30, deadline=None)
def test_promoted_trackers_exact_along_chain(data):
    """Counts-only (counted), row-keeping (partitioned) and ``track()``ed
    sets all stay exact over a multi-step chain, on both backends."""
    rows, cuts = data
    schema = RelationSchema("t", ["A", "B", "C"])
    bounds = sorted({min(cut, len(rows)) for cut in cuts} | {len(rows)})
    sets = (["A", "B"], ["B"], ["A", "C"], ["B", "C"], ["A", "B", "C"])
    for name in BACKENDS:
        with use_engine(backend=name):
            relation = Relation.from_rows(schema, rows[: bounds[0]], validate=False)
            relation.count_distinct(["A", "B"])  # promoted counts-only
            relation.stripped_partition(["B"])  # promoted with rows
            relation.stats.track(["A", "C"])  # explicit: keeps rows
            for start, end in zip(bounds, bounds[1:]):
                relation = relation.extend(rows[start:end], validate=False)
                relation.count_distinct(["B", "C"])  # promoted at the next step
                cold = Relation.from_rows(schema, rows[:end], validate=False)
                for attrs in sets:
                    assert relation.count_distinct(attrs) == cold.count_distinct(attrs)
                    partition = cold.stripped_partition(attrs)
                    pairs = relation.stats.tracked_agreeing_pairs(attrs)
                    if pairs is not None:
                        assert pairs == _agreeing_pairs(partition)
                    tracked = relation.stats.tracked_entropy(attrs)
                    if tracked is not None:
                        assert tracked == pytest.approx(entropy(partition), abs=1e-9)
                assert relation.stats.tracked(["A", "B"]).keep_rows is False
                assert relation.stats.tracked(["B"]).keep_rows is True
                assert relation.stats.tracked(["A", "C"]).keep_rows is True


class TestGroupTracker:
    def test_build_then_extend_matches_rebuild(self, backend):
        codes = [0, 1, 0, -1, 2, 1]
        tracker = GroupTracker.build(["A"], [codes[:3]], 3)
        full = list(codes)
        tracker.extend([full], 3)
        rebuilt = GroupTracker.build(["A"], [full], 6)
        assert tracker.groups == rebuilt.groups
        assert tracker.num_distinct == rebuilt.num_distinct == 4
        assert tracker.covered_rows == rebuilt.covered_rows
        assert tracker.num_classes == rebuilt.num_classes
        assert tracker.agreeing_pairs == rebuilt.agreeing_pairs
        assert tracker.entropy() == pytest.approx(rebuilt.entropy())

    def test_singleton_promotion(self, backend):
        tracker = GroupTracker.build(["A"], [[0, 1]], 2)
        assert tracker.num_classes == 0 and tracker.covered_rows == 0
        tracker.extend([[0, 1, 1]], 2)
        assert tracker.num_classes == 1
        assert tracker.covered_rows == 2
        assert tracker.agreeing_pairs == 1
        partition = tracker.stripped_partition()
        assert [list(c) for c in partition.classes] == [[1, 2]]

    def test_counts_only_refuses_partitions(self):
        tracker = GroupTracker(["A"], keep_rows=False)
        tracker.observe(1)
        with pytest.raises(ValueError):
            tracker.stripped_partition()

    def test_materialized_partition_survives_later_folds(self, backend):
        tracker = GroupTracker.build(["A"], [[0, 0, 1]], 3)
        partition = tracker.stripped_partition()
        before = [list(c) for c in partition.classes]
        tracker.extend([[0, 0, 1, 0, 1]], 3)
        assert [list(c) for c in partition.classes] == before

    def test_empty_tracker(self, backend):
        tracker = GroupTracker.build(["A"], [[]], 0)
        assert tracker.num_distinct == 0
        assert tracker.entropy() == 0.0
        assert tracker.stripped_partition().num_rows == 0


class TestAdoptDelta:
    def test_trackers_move_to_child(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [0, 1, 0]})
        relation.stats.track(["A"])
        child = relation.extend([(2, 1)])
        assert child.stats.tracked(["A"]) is not None
        assert relation.stats.tracked(["A"]) is None  # moved, not shared
        # The parent still answers from its memo caches.
        assert relation.count_distinct(["A"]) == 2
        assert child.count_distinct(["A"]) == 2

    def test_counted_sets_promoted(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [0, 1, 0]})
        relation.count_distinct(["A", "B"])
        child = relation.extend([(1, 0)])
        assert child.stats.tracked(["A", "B"]) is not None
        assert child.count_distinct(["A", "B"]) == 3

    def test_second_branch_rebuilds_cold(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [5, 6, 7]})
        relation.stats.track(["A"])
        first = relation.extend([(3, 8)])
        second = relation.extend([(4, 8)])  # trackers already moved
        assert first.count_distinct(["A"]) == 3
        assert second.count_distinct(["A"]) == 3

    def test_delta_hits_counted(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2]})
        relation.stats.track(["A"])
        child = relation.extend([(1,)])
        child.stats.stripped_partition(["A"])
        assert child.stats.delta_hits >= 1
        assert child.stats.tracked_sets == 1

    def test_multi_attribute_key_refines_cached_subset(self, backend):
        relation = Relation.from_columns(
            "t",
            {"A": [1, 1, 2, 2, 1, 3, 3], "B": [0, 0, 1, 1, 1, 0, 0]},
        )
        relation.stats.track(["A", "B"])
        child = relation.extend([(1, 0), (2, 1), (3, 1)])
        stats = child.stats
        expected = canonical(stats.tracked(["A", "B"]).stripped_partition())
        stats.stripped_partition(["A"])
        hits = stats.delta_hits
        partition = stats.stripped_partition(["A", "B"])
        assert stats.delta_hits == hits  # refined from π_A, not the tracker
        assert canonical(partition) == expected

    def test_multi_attribute_key_without_cached_subset_uses_tracker(self, backend):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [0, 0, 1]})
        relation.stats.track(["A", "B"])
        child = relation.extend([(2, 1)])
        partition = child.stats.stripped_partition(["A", "B"])
        assert child.stats.delta_hits == 1
        assert canonical(partition) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_single_attribute_key_still_uses_tracker(self, backend):
        relation = Relation.from_columns("t", {"A": [1, 1, 2]})
        relation.stats.track(["A"])
        child = relation.extend([(2,)])
        child.stats.stripped_partition([])  # π_∅ refines to π_A, yet...
        child.stats.stripped_partition(["A"])
        assert child.stats.delta_hits == 1  # ...the tracker serves it

    def test_counted_only_sets_promote_counts_only(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [0, 1, 0]})
        relation.count_distinct(["A", "B"])
        relation.count_distinct(["B"])
        child = relation.extend([(1, 0)])
        assert child.stats.tracked(["A", "B"]).keep_rows is False
        assert child.stats.tracked(["B"]).keep_rows is False

    def test_partitioned_and_tracked_sets_keep_rows(self):
        relation = Relation.from_columns(
            "t", {"A": [1, 1, 2], "B": [0, 1, 0], "C": [5, 5, 6]}
        )
        relation.stripped_partition(["A", "B"])
        relation.stats.track(["C"])
        child = relation.extend([(1, 0, 5)])
        assert child.stats.tracked(["A", "B"]).keep_rows is True
        assert child.stats.tracked(["C"]).keep_rows is True
        # Moved trackers keep their kind along the chain.
        grandchild = child.extend([(2, 1, 6)])
        assert grandchild.stats.tracked(["A", "B"]).keep_rows is True
        assert grandchild.stats.tracked(["C"]).keep_rows is True

    def test_counts_only_multi_attribute_key_builds_partition(self, backend):
        rows = [(1, 0), (1, 0), (2, 1), (2, 1), (1, 1), (3, 0)]
        relation = Relation.from_rows(RelationSchema("t", ["A", "B"]), rows[:4])
        relation.count_distinct(["A", "B"])
        child = relation.extend(rows[4:])
        stats = child.stats
        assert stats.tracked(["A", "B"]).keep_rows is False
        hits = stats.delta_hits
        partition = stats.stripped_partition(["A", "B"])
        assert stats.delta_hits == hits  # the counts-only tracker holds no rows
        cold = Relation.from_rows(child.schema, rows)
        assert canonical(partition) == canonical(cold.stripped_partition(["A", "B"]))

    def test_counts_only_size_map_stays_tracked_by_collector(self, backend):
        """A full collection must not untrack a multi-column size map,
        or each new tuple key would put all of it back in the youngest
        generation for the next young collections to walk."""
        import gc

        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [5, 6, 5]})
        relation.count_distinct(["A", "B"])
        child = relation.extend([(1, 5)])
        groups = child.stats.tracked(["A", "B"]).groups
        gc.collect()
        assert gc.is_tracked(groups)
        grandchild = child.extend([(3, 7)])
        assert grandchild.stats.tracked(["A", "B"]).groups is groups
        assert grandchild.count_distinct(["A", "B"]) == 4

    def test_partitioned_counts_only_set_regains_rows(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [0, 1, 0]})
        relation.count_distinct(["A", "B"])
        child = relation.extend([(1, 0)])
        child.stripped_partition(["A", "B"])
        grandchild = child.extend([(2, 0)])
        tracker = grandchild.stats.tracked(["A", "B"])
        assert tracker.keep_rows is True
        assert canonical(tracker.stripped_partition()) == {
            frozenset({0, 3}),
            frozenset({2, 4}),
        }

    def test_track_upgrades_counts_only_tracker(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2], "B": [0, 0, 1]})
        relation.count_distinct(["A", "B"])
        child = relation.extend([(2, 1)])
        assert child.stats.tracked(["A", "B"]).keep_rows is False
        tracker = child.stats.track(["A", "B"])
        assert tracker.keep_rows is True
        assert child.stats.tracked(["A", "B"]) is tracker
        assert child.stats.tracked_sets == 1
        assert canonical(tracker.stripped_partition()) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_superseded_snapshot_freed_without_collector(self, backend):
        """Statistics hold no back-pointer to their relation, so a
        parent snapshot and its partition cache die by reference
        counting alone — no cycle waits for a full collection."""
        import gc

        from repro.relational.statistics import RelationStatistics

        def live(kind):
            return sum(isinstance(obj, kind) for obj in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            relation = Relation.from_columns(
                "t", {"A": [1, 1, 2, 2], "B": [0, 1, 0, 1], "C": [5, 5, 6, 6]}
            )
            kind = type(relation.stripped_partition(["A", "B"]))
            relation.stats.extension_counts(["A"], ["C"], ["B"])
            child = relation.extend([(1, 0, 5)])
            child.stripped_partition(["A", "B"])
            before = (live(Relation), live(RelationStatistics), live(kind))
            del relation
            after = (live(Relation), live(RelationStatistics), live(kind))
        finally:
            gc.enable()
        assert after[0] == before[0] - 1
        assert after[1] == before[1] - 1
        assert after[2] < before[2]
        assert child.count_distinct(["A", "B"]) == 4


class TestCacheBounds:
    def test_partition_cache_lru_evicts(self):
        with use_engine(partition_cache_size=2, delta_track_limit=64):
            relation = Relation.from_columns(
                "t", {"A": [1, 1], "B": [0, 1], "C": [2, 2], "D": [3, 4]}
            )
            stats = relation.stats
            stats.stripped_partition(["A"])
            stats.stripped_partition(["B"])
            stats.stripped_partition(["C"])  # evicts A
            assert stats.cached_partitions == 2
            assert stats.partition_cache_evictions == 1
            assert stats.cached_partition(["A"]) is None
            # A hit refreshes recency: B stays, C is evicted next.
            stats.stripped_partition(["B"])
            stats.stripped_partition(["D"])
            assert stats.cached_partition(["B"]) is not None
            assert stats.cached_partition(["C"]) is None

    def test_tracker_limit_bounds_adoption(self):
        with use_engine(partition_cache_size=None, delta_track_limit=2):
            relation = Relation.from_columns(
                "t", {"A": [1, 1], "B": [0, 1], "C": [2, 2]}
            )
            relation.count_distinct(["A"])
            relation.count_distinct(["B"])
            relation.count_distinct(["C"])
            child = relation.extend([(1, 0, 2)])
            assert child.stats.tracked_sets == 2

    def test_engine_config_validates_cache_bounds(self):
        with pytest.raises(ValueError):
            with use_engine(partition_cache_size=0):
                pass
        with pytest.raises(ValueError):
            with use_engine(delta_track_limit=0):
                pass

    def test_clear_drops_trackers(self):
        relation = Relation.from_columns("t", {"A": [1, 1, 2]})
        relation.stats.track(["A"])
        relation.stats.clear()
        assert relation.stats.tracked_sets == 0


class TestDeltaStream:
    def test_counts_match_relation(self):
        schema = RelationSchema("s", ["A", "B"])
        stream = DeltaStream(schema)
        x = stream.tracker(["A"])
        xy = stream.tracker(["A", "B"])
        rows = [("a", 1), ("a", 2), ("b", 1), ("a", 1), (None, 1), (None, None)]
        for row in rows:
            stream.append(row)
        relation = Relation.from_rows(schema, rows, validate=False)
        assert x.num_distinct == relation.count_distinct(["A"])
        assert xy.num_distinct == relation.count_distinct(["A", "B"])

    def test_same_position_requests_share(self):
        schema = RelationSchema("s", ["A", "B"])
        stream = DeltaStream(schema)
        assert stream.tracker(["A"]) is stream.tracker(["A"])
        # Attribute order does not matter for the set.
        assert stream.tracker(["A", "B"]) is stream.tracker(["B", "A"])

    def test_late_tracker_sees_only_suffix(self):
        schema = RelationSchema("s", ["A", "B"])
        stream = DeltaStream(schema)
        early = stream.tracker(["A"])
        stream.append(("a", 1))
        late = stream.tracker(["A"])
        assert late is not early
        stream.append(("b", 2))
        assert early.num_distinct == 2
        assert late.num_distinct == 1

    def test_entropy_on_counts_only_tracker(self):
        schema = RelationSchema("s", ["A"])
        stream = DeltaStream(schema)
        tracker = stream.tracker(["A"])
        for value in ("x", "x", "y", "z", "z", "z"):
            stream.append((value,))
        relation = Relation.from_columns("r", {"A": ["x", "x", "y", "z", "z", "z"]})
        assert tracker.entropy() == pytest.approx(
            entropy(relation.stripped_partition(["A"])), abs=1e-12
        )
