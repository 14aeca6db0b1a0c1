"""Continuous FD validity checking over a growing instance.

The paper assumes "the DBMS is able to detect that (e.g. by means of
periodic or continuous checks of FDs validity)" (§1).  Re-running
``COUNT(DISTINCT …)`` from scratch on every insert makes continuous
checking O(n) per tuple; this monitor makes it O(#FDs) per tuple by
maintaining the three distinct-counts of Definition 3 incrementally.

One shared :class:`~repro.relational.delta.DeltaStream` serves *all*
watched FDs: each attribute is dictionary-encoded exactly once per
tuple (values interned to dense integer codes), and each distinct
attribute set — ``X``, ``X ∪ Y``, ``Y`` — is maintained by a single
counts-only group tracker however many FDs need it.  Memory per
tracker is one ``int → int`` (or ``int-tuple → int``) map.  The test
suite pins the counts against a batch re-assessment of every stream
prefix, NULLs included (codes are assigned injectively).

The monitor raises *alerts* through a callback whenever an FD's
confidence crosses below a configured threshold — the trigger for the
semi-automatic evolution loop.  Alerts re-arm when confidence recovers
to the threshold, so a second genuine drop fires again.  A short
confidence history per FD lets drift (systematic, sustained decay) be
told from a blip (the noise-vs-drift distinction the paper's premise
rests on).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.fd.fd import FunctionalDependency
from repro.fd.measures import FDAssessment
from repro.relational import expr
from repro.relational.delta import DeltaStream, GroupTracker
from repro.relational.errors import ArityError
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

__all__ = ["FDAlert", "MonitoredFD", "FDMonitor"]


@dataclass(frozen=True)
class FDAlert:
    """Raised (via callback) when an FD's confidence crosses a threshold."""

    fd: FunctionalDependency
    confidence: float
    threshold: float
    num_rows: int

    def __str__(self) -> str:
        return (
            f"ALERT {self.fd}: confidence {self.confidence:.4f} fell below "
            f"{self.threshold} at {self.num_rows} rows"
        )


@dataclass
class MonitoredFD:
    """Incremental state for one watched FD.

    The three counts live in the shared stream's trackers for ``X``,
    ``X ∪ Y`` and ``Y`` (``_trackers``); :attr:`confidence`,
    :attr:`goodness` and :meth:`assessment` read them.
    """

    fd: FunctionalDependency
    threshold: float
    _trackers: tuple[GroupTracker, GroupTracker, GroupTracker] = field(repr=False)
    alerted: bool = False
    history: list[float] = field(default_factory=list)

    def _counts(self) -> tuple[int, int, int]:
        """Current ``(|π_X|, |π_XY|, |π_Y|)``."""
        x, xy, y = self._trackers
        return x.num_distinct, xy.num_distinct, y.num_distinct

    @property
    def confidence(self) -> float:
        """Current ``|π_X| / |π_XY|`` (1.0 on an empty stream)."""
        x, xy, _ = self._counts()
        if not xy:
            return 1.0
        return x / xy

    @property
    def goodness(self) -> int:
        """Current ``|π_X| − |π_Y|``."""
        x, _, y = self._counts()
        return x - y

    def assessment(self) -> FDAssessment:
        """A snapshot compatible with the batch measure API."""
        x, xy, y = self._counts()
        return FDAssessment(fd=self.fd, distinct_x=x, distinct_xy=xy, distinct_y=y)


class FDMonitor:
    """Watches FDs over an append-only stream of tuples.

    Seed it with a schema (or an existing relation, whose rows are
    replayed), then feed tuples with :meth:`append`.  Alerts fire once
    per FD, when its confidence first drops below the threshold; a
    subsequent recovery above the threshold re-arms the alert.  Every
    ``history_every``-th observed tuple appends each FD's confidence to
    its history.
    """

    def __init__(
        self,
        schema: RelationSchema | Relation,
        on_alert: Callable[[FDAlert], None] | None = None,
        default_threshold: float = 1.0,
        history_every: int = 100,
        scope: expr.Predicate | None = None,
    ) -> None:
        if isinstance(schema, Relation):
            relation: Relation | None = schema
            self._schema = schema.schema
        else:
            relation = None
            self._schema = schema
        if (
            isinstance(history_every, bool)
            or not isinstance(history_every, int)
            or history_every < 1
        ):
            raise ValueError(
                f"history_every must be a positive integer, got {history_every!r}"
            )
        self._arity = self._schema.arity
        self._watched: list[MonitoredFD] = []
        self._on_alert = on_alert
        self._default_threshold = default_threshold
        self._history_every = history_every
        self._num_rows = 0
        self._pending_replay = relation
        self._stream = DeltaStream(self._schema)
        self._scope = scope
        # Resolve (and thereby validate) the scope's attributes once.
        self._scope_positions = (
            tuple(
                (name, self._schema.position(name))
                for name in expr.columns_of(scope)
            )
            if scope is not None
            else ()
        )

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def on_alert(self) -> Callable[[FDAlert], None] | None:
        """The alert callback (settable; dropped by snapshots)."""
        return self._on_alert

    @on_alert.setter
    def on_alert(self, callback: Callable[[FDAlert], None] | None) -> None:
        self._on_alert = callback

    # ------------------------------------------------------------------
    # Snapshot support (the monitoring service's checkpoint path)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle every counter but never the alert callback.

        The delta stream, its shared trackers, and the per-FD states are
        plain dict/tuple structures, so a pickled monitor restores to
        *exactly* the same confidences, alert arming, and histories —
        the property the service's checkpoint/replay recovery is pinned
        on.  Callbacks are process-local (often closures over live
        queues); the restorer re-attaches one via :attr:`on_alert`.
        """
        state = dict(self.__dict__)
        state["_on_alert"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def watch(
        self, fd: FunctionalDependency, threshold: float | None = None
    ) -> MonitoredFD:
        """Start watching an FD; replays already-seen seed rows.

        Re-watching an already-watched FD is idempotent: the existing
        state (counters, alert arming, history) is returned rather than
        a duplicate being registered — so alerts keep firing exactly
        once per crossing however many times a caller re-declares its
        watch list.  An explicit ``threshold`` on a re-watch updates
        the trigger level in place.
        """
        explicit = threshold is not None
        threshold = self._default_threshold if threshold is None else threshold
        if not 0.0 < threshold <= 1.0:
            raise ValueError("alert threshold must be in (0, 1]")
        for state in self._watched:
            if state.fd == fd:
                if explicit:
                    state.threshold = threshold
                return state
        # Validate the FD's attributes *before* touching the shared
        # stream, so a failed watch leaves no orphan trackers behind.
        self._schema.positions(fd.antecedent + fd.consequent)
        x = list(fd.antecedent)
        y = list(fd.consequent)
        trackers = (
            self._stream.tracker(x),
            self._stream.tracker(x + y),
            self._stream.tracker(y),
        )
        state = MonitoredFD(fd=fd, threshold=threshold, _trackers=trackers)
        self._watched.append(state)
        if self._pending_replay is not None:
            replay, self._pending_replay = self._pending_replay, None
            for row in replay.rows():
                self.append(row)
        else:
            # Late watcher on a live stream: it only sees future rows;
            # its counters start empty by design (documented behaviour;
            # the delta stream hands out fresh suffix trackers).
            pass
        return state

    @property
    def num_rows(self) -> int:
        """Tuples observed so far."""
        return self._num_rows

    @property
    def watched(self) -> list[MonitoredFD]:
        """The monitored FD states (live objects)."""
        return list(self._watched)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def append(self, row: Sequence[Any]) -> list[FDAlert]:
        """Observe one tuple; returns (and dispatches) any new alerts.

        With a ``scope`` predicate configured, tuples outside the scope
        are observed (they advance :attr:`num_rows`) but never enter
        the counters — the monitor watches ``σ_scope`` of the stream,
        the same IR semantics batch validation applies.
        """
        if len(row) != self._arity:
            raise ArityError(self._arity, len(row))
        self._num_rows += 1
        if self._scope is not None and not expr.evaluate_predicate(
            self._scope, {name: row[pos] for name, pos in self._scope_positions}
        ):
            # Out-of-scope tuples never enter the counters, but the
            # periodic history sampling keys off the *observed* stream
            # position, so record the (unchanged) confidences anyway.
            if self._num_rows % self._history_every == 0:
                for state in self._watched:
                    state.history.append(state.confidence)
            return []
        # One encode + one fold per distinct attribute set, shared by
        # every watched FD.
        self._stream.append(row)
        alerts: list[FDAlert] = []
        for state in self._watched:
            # Inlined tracker read — this runs per tuple per FD.
            x, xy, _ = state._trackers
            xy_count = len(xy.groups)
            confidence = len(x.groups) / xy_count if xy_count else 1.0
            if self._num_rows % self._history_every == 0:
                state.history.append(confidence)
            if confidence < state.threshold and not state.alerted:
                state.alerted = True
                alert = FDAlert(
                    fd=state.fd,
                    confidence=confidence,
                    threshold=state.threshold,
                    num_rows=self._num_rows,
                )
                alerts.append(alert)
                if self._on_alert is not None:
                    self._on_alert(alert)
            elif confidence >= state.threshold and state.alerted:
                state.alerted = False  # re-arm after recovery
        return alerts

    def extend(self, rows: Sequence[Sequence[Any]]) -> list[FDAlert]:
        """Observe many tuples; returns all alerts raised."""
        alerts: list[FDAlert] = []
        for row in rows:
            alerts.extend(self.append(row))
        return alerts

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def state_of(self, fd: FunctionalDependency) -> MonitoredFD:
        """The monitored state of one FD; raises ``KeyError`` if unwatched."""
        for state in self._watched:
            if state.fd == fd:
                return state
        raise KeyError(f"FD {fd} is not watched")

    def violated(self) -> list[MonitoredFD]:
        """Watched FDs whose current confidence is below 1."""
        return [state for state in self._watched if state.confidence < 1.0]
