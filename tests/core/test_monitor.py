"""Tests for the incremental FD monitor (continuous checking)."""

import re

import pytest

from repro.core.monitor import FDAlert, FDMonitor
from repro.datagen.places import F1, places_relation
from repro.fd.fd import FunctionalDependency, fd
from repro.fd.measures import assess
from repro.relational.errors import ArityError
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from tests.oracles.monitor import alert_positions, prefix_assessments

FD_AB = FunctionalDependency(("A",), ("B",))


@pytest.fixture
def schema():
    return RelationSchema("stream", ["A", "B", "C"])


class TestIncrementalCounts:
    def test_matches_batch_measures(self, schema):
        monitor = FDMonitor(schema)
        state = monitor.watch(FD_AB)
        rows = [
            ("a1", "b1", "c1"),
            ("a1", "b1", "c2"),
            ("a2", "b2", "c1"),
            ("a2", "b3", "c1"),
        ]
        monitor.extend(rows)
        relation = Relation.from_rows(schema, rows)
        batch = assess(relation, FD_AB)
        assert state.confidence == pytest.approx(batch.confidence)
        assert state.goodness == batch.goodness
        snapshot = state.assessment()
        assert snapshot.distinct_x == 2
        assert snapshot.distinct_xy == 3

    def test_empty_stream_is_vacuously_exact(self, schema):
        monitor = FDMonitor(schema)
        state = monitor.watch(FD_AB)
        assert state.confidence == 1.0
        assert state.goodness == 0

    def test_seed_relation_replayed(self):
        places = places_relation()
        monitor = FDMonitor(places)
        state = monitor.watch(F1)
        assert monitor.num_rows == 11
        assert state.confidence == pytest.approx(0.5)

    def test_arity_checked(self, schema):
        monitor = FDMonitor(schema)
        monitor.watch(FD_AB)
        with pytest.raises(ArityError):
            monitor.append(("only", "two"))

    def test_multi_attribute_sides(self, schema):
        monitor = FDMonitor(schema)
        state = monitor.watch(fd("[A, C] -> [B]"))
        monitor.append(("a", "b", "c"))
        monitor.append(("a", "b2", "c"))
        assert state.confidence == pytest.approx(0.5)


class TestAlerts:
    def test_alert_fires_once_below_threshold(self, schema):
        received: list[FDAlert] = []
        monitor = FDMonitor(schema, on_alert=received.append)
        monitor.watch(FD_AB, threshold=0.9)
        monitor.append(("a1", "b1", "c"))
        assert received == []
        alerts = monitor.append(("a1", "b2", "c"))  # confidence 1/2
        assert len(alerts) == 1
        assert received == alerts
        assert "ALERT" in str(alerts[0])
        # Still below threshold: no duplicate alert.
        assert monitor.append(("a1", "b3", "c")) == []

    def test_alert_rearms_after_recovery(self, schema):
        monitor = FDMonitor(schema)
        monitor.watch(FD_AB, threshold=0.7)
        monitor.append(("a1", "b1", "c"))
        assert monitor.append(("a1", "b2", "c"))  # c = 0.5 -> alert
        # Many fresh consistent groups push confidence back up.
        for i in range(10):
            monitor.append((f"a{i+10}", f"b{i+10}", "c"))
        state = monitor.state_of(FD_AB)
        assert state.confidence >= 0.7
        assert not state.alerted
        # A new violation re-alerts.
        alerts = []
        for i in range(30):
            alerts.extend(monitor.append((f"a{i+10}", f"bX{i}", "c")))
            if alerts:
                break
        assert alerts

    def test_exact_threshold_watches_any_violation(self, schema):
        monitor = FDMonitor(schema)
        monitor.watch(FD_AB)  # default threshold 1.0
        assert monitor.append(("a", "b", "c")) == []
        assert monitor.append(("a", "b2", "c"))

    def test_invalid_threshold(self, schema):
        monitor = FDMonitor(schema)
        with pytest.raises(ValueError):
            monitor.watch(FD_AB, threshold=0.0)


class TestIntrospection:
    def test_violated_listing(self, schema):
        monitor = FDMonitor(schema)
        monitor.watch(FD_AB, threshold=0.5)
        monitor.watch(fd("B -> A"), threshold=0.5)
        monitor.append(("a", "b", "c"))
        monitor.append(("a", "b2", "c"))  # violates A->B only
        violated = [state.fd for state in monitor.violated()]
        assert violated == [FD_AB]

    def test_state_of_unknown_fd(self, schema):
        monitor = FDMonitor(schema)
        with pytest.raises(KeyError):
            monitor.state_of(FD_AB)

    def test_history_sampling(self, schema):
        monitor = FDMonitor(schema, history_every=2)
        state = monitor.watch(FD_AB)
        for i in range(6):
            monitor.append((f"a{i}", f"b{i}", "c"))
        assert len(state.history) == 3

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "x", None])
    def test_history_every_must_be_a_positive_int(self, schema, bad):
        with pytest.raises(
            ValueError,
            match=re.escape(f"history_every must be a positive integer, got {bad!r}"),
        ):
            FDMonitor(schema, history_every=bad)


def _check_against_oracle(schema, rows, watches, scope=None):
    """Stream ``rows`` through a monitor watching ``(fd, threshold)``
    pairs; after every tuple each FD's counts and alert state must
    equal the prefix re-assessment oracle, and the alerts must fire at
    exactly the oracle's positions.  Returns the monitored states."""
    alerts = []
    monitor = FDMonitor(schema, on_alert=alerts.append, scope=scope)
    states = [monitor.watch(dep, threshold) for dep, threshold in watches]
    trace = []
    for row in rows:
        monitor.append(row)
        trace.append([(s.assessment(), s.alerted) for s in states])
    expected_alerts = []
    for index, (dep, threshold) in enumerate(watches):
        oracle = prefix_assessments(schema, rows, dep, scope)
        assert [step[index] for step in trace] == [
            (a, a.confidence < threshold) for a in oracle
        ]
        expected_alerts += [
            (position, str(dep)) for position in alert_positions(oracle, threshold)
        ]
    assert sorted((a.num_rows, str(a.fd)) for a in alerts) == sorted(expected_alerts)
    return states


class TestBothEngines:
    """The delta monitor against the prefix re-assessment oracle
    (``tests/oracles/monitor.py``): after every tuple, each watched
    FD's counts, confidence, goodness and alert state must equal
    ``assess`` over the stream so far."""

    def test_confidences_identical_across_engines(self, schema):
        rows = [
            (f"a{i % 7}", f"b{(i * 3) % 5}" if i % 11 else None, f"c{i % 2}")
            for i in range(200)
        ]
        _check_against_oracle(
            schema, rows, [(fd("A -> C"), 0.5), (fd("[A, C] -> B"), 0.5)]
        )

    def test_alert_rearm_fires_twice(self, schema):
        """Drop below threshold → recover → drop again must alert twice."""
        rows = (
            [("a1", "b1", "c"), ("a1", "b2", "c")]  # confidence 0.5: alert
            # Recovery: fresh consistent groups push confidence over 0.7.
            + [(f"r{i}", f"rb{i}", "c") for i in range(10)]
            # Second genuine drop: violate many fresh groups.
            + [(f"r{i}", f"other{i}", "c") for i in range(10)]
        )
        alerts = []
        monitor = FDMonitor(schema, on_alert=alerts.append)
        state = monitor.watch(FD_AB, threshold=0.7)
        monitor.extend(rows[:2])
        assert len(alerts) == 1
        monitor.extend(rows[2:12])
        assert state.confidence >= 0.7 and not state.alerted
        monitor.extend(rows[12:])
        assert len(alerts) == 2, "re-armed alert must fire on the second drop"
        assert alerts[0].num_rows < alerts[1].num_rows
        oracle = prefix_assessments(schema, rows, FD_AB)
        assert [a.num_rows for a in alerts] == alert_positions(oracle, 0.7)

    def test_null_bearing_rows(self, schema):
        """NULL is one regular (distinct) value."""
        rows = [
            (None, "b1", "c"),
            (None, "b1", "c"),
            (None, "b2", "c"),  # NULL X-group now maps to 2 Bs
            ("a1", None, "c"),
            ("a1", None, "c"),  # NULL consequent: consistent
        ]
        (state,) = _check_against_oracle(schema, rows, [(FD_AB, 1.0)])
        assert state.confidence == pytest.approx(2 / 3)
        snapshot = state.assessment()
        assert snapshot.distinct_x == 2
        assert snapshot.distinct_xy == 3
        assert snapshot.distinct_y == 3

    def test_replay_seeds_the_monitor(self):
        places = places_relation()
        monitor = FDMonitor(places)
        state = monitor.watch(F1)
        assert monitor.num_rows == 11
        assert state.confidence == pytest.approx(0.5)
        assert state.assessment() == assess(places, F1)

    def test_failed_watch_leaves_no_orphan_trackers(self, schema):
        monitor = FDMonitor(schema)
        with pytest.raises(Exception):
            monitor.watch(fd("A -> Nope"))  # unknown attribute
        assert monitor.watched == []
        assert monitor._stream._active == []  # no leaked stream state

    def test_fds_share_trackers(self, schema):
        monitor = FDMonitor(schema)
        first = monitor.watch(fd("A -> B"))
        second = monitor.watch(fd("A -> C"))
        # Same antecedent, watched at the same position → one structure.
        assert first._trackers[0] is second._trackers[0]
        monitor.extend([("a", "b", "c"), ("a", "b", "c2")])
        assert first.confidence == 1.0  # A -> B holds
        assert second.confidence == pytest.approx(0.5)  # A -> C violated


class TestEndToEndDriftDetection:
    def test_monitor_triggers_repair_loop(self):
        """Stream drifted rows, catch the alert, repair with the CB
        search — the full continuous-evolution pipeline."""
        from repro.core.repair import find_first_repair

        schema = RelationSchema("stream", ["Branch", "Class", "Tax"])
        rows = []
        for branch in range(20):
            for cls in range(3):
                rows.append((f"br{branch}", f"cl{cls}", f"t{branch % 5}"))
        drifted = [
            (b, c, f"{t}/{c}") for b, c, t in rows  # tax now depends on class
        ]
        alerts: list[FDAlert] = []
        monitor = FDMonitor(schema, on_alert=alerts.append)
        monitor.watch(fd("Branch -> Tax"), threshold=0.95)
        monitor.extend(rows)
        assert not alerts  # clean phase
        monitor.extend(drifted)
        assert alerts  # drift detected
        # Repair against the post-drift era (mixing eras leaves identical
        # (Branch, Class) rows with different Tax — unrepairable by design).
        relation = Relation.from_rows(schema, drifted)
        best = find_first_repair(relation, fd("Branch -> Tax"))
        assert best is not None and best.added == ("Class",)


class TestScopePredicates:
    """IR scope predicates (PR 4): the monitor watches σ_scope."""

    def _schema(self):
        return RelationSchema("stream", ["Region", "Key", "Val"])

    def test_out_of_scope_rows_never_enter_counters(self):
        from repro.relational import expr

        scope = expr.eq(expr.col("Region"), "eu")
        monitor = FDMonitor(self._schema(), scope=scope)
        state = monitor.watch(fd("Key -> Val"), threshold=0.9)
        monitor.append(("eu", "k1", "v1"))
        monitor.append(("us", "k1", "v2"))  # out of scope: would violate
        assert monitor.num_rows == 2
        assert state.confidence == 1.0

    def test_scoped_violation_still_alerts(self):
        from repro.relational import expr

        scope = expr.eq(expr.col("Region"), "eu")
        alerts: list[FDAlert] = []
        monitor = FDMonitor(
            self._schema(), on_alert=alerts.append, scope=scope
        )
        monitor.watch(fd("Key -> Val"), threshold=1.0)
        monitor.append(("eu", "k1", "v1"))
        monitor.append(("eu", "k1", "v2"))
        assert len(alerts) == 1

    def test_scope_engines_agree(self):
        from repro.relational import expr

        scope = expr.or_(
            expr.gt(expr.col("Val"), 1), expr.is_null(expr.col("Key"))
        )
        schema = RelationSchema("s", ["Region", "Key", "Val"])
        rows = [
            ("eu", "a", 0), ("eu", "a", 2), ("us", None, 3),
            ("eu", "b", 1), ("us", "a", 5),
        ]
        _check_against_oracle(
            schema, rows, [(fd("Key -> Val"), 0.1), (fd("Region -> Val"), 0.9)], scope
        )

    def test_unknown_scope_column_raises_at_construction(self):
        from repro.relational import expr
        from repro.relational.errors import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            FDMonitor(self._schema(), scope=expr.eq(expr.col("nope"), 1))

    def test_history_sampling_counts_out_of_scope_rows(self):
        from repro.relational import expr

        monitor = FDMonitor(
            self._schema(), history_every=2, scope=expr.eq(expr.col("Region"), "eu")
        )
        state = monitor.watch(fd("Key -> Val"))
        for i in range(10):
            region = "eu" if i % 2 else "us"  # every sampling row is out of scope
            monitor.append((region, f"k{i}", "v"))
        # Sampling keys off observed stream position (rows 2,4,6,8,10),
        # not off in-scope rows only.
        assert len(state.history) == 5
