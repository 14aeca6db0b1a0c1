"""Monitor lifecycle edges (PR 8): idempotent re-watch, late watchers,
interleaving equivalence, and snapshot (pickle) round-trips — the
properties the monitoring service's recovery path is pinned on."""

from __future__ import annotations

import pickle

import pytest

from repro.core.monitor import FDMonitor
from repro.fd.fd import FunctionalDependency
from repro.relational.schema import RelationSchema
from tests.oracles.monitor import prefix_assessments

FD = FunctionalDependency(["District"], ["Region"])
SCHEMA = RelationSchema("places", ["Region", "District", "Manager"])

CLEAN = [
    ["R1", "D1", "M1"],
    ["R2", "D2", "M2"],
    ["R1", "D3", "M1"],
]
DIRTY = [
    ["R1", "D1", "M1"],
    ["R2", "D1", "M2"],  # D1 now maps to two regions
    ["R3", "D1", "M3"],
]


class TestReWatch:
    def test_rewatch_returns_the_same_state(self):
        monitor = FDMonitor(SCHEMA)
        first = monitor.watch(FD, threshold=0.9)
        again = monitor.watch(FD)
        assert again is first
        assert len(monitor.watched) == 1
        assert again.threshold == 0.9  # default did not clobber

    def test_rewatch_with_explicit_threshold_updates_in_place(self):
        monitor = FDMonitor(SCHEMA)
        state = monitor.watch(FD, threshold=0.9)
        monitor.watch(FD, threshold=0.5)
        assert state.threshold == 0.5
        assert len(monitor.watched) == 1

    def test_rewatch_preserves_counters_and_arming(self):
        alerts = []
        monitor = FDMonitor(SCHEMA, on_alert=alerts.append)
        monitor.watch(FD, threshold=0.9)
        monitor.extend(DIRTY)
        assert len(alerts) == 1
        state = monitor.watch(FD)  # re-declare, as a service restart does
        assert state.alerted  # still armed-off: no duplicate alert
        monitor.append(["R4", "D1", "M4"])
        assert len(alerts) == 1  # crossing already fired exactly once
        assert state.confidence < 0.9

    def test_rewatch_validates_threshold(self):
        monitor = FDMonitor(SCHEMA)
        monitor.watch(FD)
        with pytest.raises(ValueError, match="threshold"):
            monitor.watch(FD, threshold=1.5)


class TestWatchAfterExtend:
    def test_late_watcher_sees_only_future_rows(self):
        monitor = FDMonitor(SCHEMA)
        monitor.watch(FD)
        monitor.extend(DIRTY)
        late = monitor.watch(
            FunctionalDependency(["Manager"], ["Region"])
        )
        counts = late.assessment()
        assert (counts.distinct_x, counts.distinct_xy) == (0, 0)
        assert late.confidence == 1.0
        monitor.append(["R9", "D9", "M9"])
        counts = late.assessment()
        assert (counts.distinct_x, counts.distinct_xy) == (1, 1)
        # Exactly the batch measures of the rows since the watch.
        assert counts == prefix_assessments(SCHEMA, [["R9", "D9", "M9"]], late.fd)[-1]

    def test_late_watcher_alerts_on_its_own_stream(self):
        monitor = FDMonitor(SCHEMA)
        monitor.watch(FD)
        monitor.extend(CLEAN)
        late_fd = FunctionalDependency(["Manager"], ["Region"])
        late = monitor.watch(late_fd, threshold=0.9)
        # M1 maps to two regions only in *future* rows.
        alerts = monitor.extend([["R1", "D8", "M1"], ["R5", "D9", "M1"]])
        assert [a.fd for a in alerts] == [late_fd]
        assert late.alerted


class TestInterleavingEquivalence:
    def test_interleaved_append_extend_equals_one_batch(self):
        rows = DIRTY + CLEAN + DIRTY
        batched = FDMonitor(SCHEMA)
        batched_state = batched.watch(FD, threshold=0.9)
        batched_alerts = batched.extend(rows)

        interleaved = FDMonitor(SCHEMA)
        inter_state = interleaved.watch(FD, threshold=0.9)
        inter_alerts = []
        inter_alerts.extend(interleaved.extend(rows[:2]))
        inter_alerts.extend(interleaved.append(rows[2]))
        inter_alerts.extend(interleaved.extend(rows[3:7]))
        for row in rows[7:]:
            inter_alerts.extend(interleaved.append(row))

        assert interleaved.num_rows == batched.num_rows
        assert inter_state.confidence == batched_state.confidence
        assert inter_state.assessment() == batched_state.assessment()
        assert [
            (a.confidence, a.num_rows) for a in inter_alerts
        ] == [(a.confidence, a.num_rows) for a in batched_alerts]


class TestSnapshotRoundTrip:
    def test_pickle_preserves_state_and_drops_callback(self):
        alerts = []
        monitor = FDMonitor(SCHEMA, on_alert=alerts.append)
        monitor.watch(FD, threshold=0.9)
        monitor.extend(DIRTY)
        clone = pickle.loads(pickle.dumps(monitor))
        assert clone.on_alert is None  # callbacks are process-local
        original = monitor.state_of(FD)
        restored = clone.state_of(FD)
        assert restored.confidence == original.confidence
        assert restored.alerted == original.alerted
        assert restored.history == original.history
        assert clone.num_rows == monitor.num_rows

    def test_restored_monitor_continues_identically(self):
        monitor = FDMonitor(SCHEMA)
        monitor.watch(FD, threshold=0.9)
        monitor.extend(DIRTY)
        clone = pickle.loads(pickle.dumps(monitor))
        more = CLEAN + [["R7", "D1", "M7"]]
        original_alerts = monitor.extend(more)
        reattached = []
        clone.on_alert = reattached.append
        clone_alerts = clone.extend(more)
        assert (
            monitor.state_of(FD).confidence == clone.state_of(FD).confidence
        )
        assert len(clone_alerts) == len(original_alerts)
        assert reattached == clone_alerts
