"""The incremental delta engine: O(Δ) statistics over growing instances.

The paper's premise is a *continuously monitored* database — "during
the life of a database, systematic and frequent violations … may
suggest that the represented reality is changing" (§1).  Monitoring
means the same distinct counts, partitions, and measures are asked of
ever-longer prefixes of one logical tuple stream; recomputing them
from scratch at every step turns an n-tuple history into O(n²) total
work.  This module makes each step O(Δ):

* :class:`GroupTracker` — one attribute set's grouping, maintained
  incrementally.  It is the *unstripped* companion of the cached
  stripped partitions: every group is kept (including singletons, so a
  later row can promote one to a real class), and alongside the groups
  it maintains the scalar statistics every consumer reads without
  materializing anything — distinct count, covered rows, class count,
  the Σ C(s,2) agreeing-pair sum (violating-pair counting), and the
  class-size histogram (entropy).  Folding Δ rows in costs O(Δ) via
  the ``group_index`` / ``extend_group_index`` kernels of the active
  backend (:mod:`repro.relational.kernels`).

* :class:`DeltaStream` — the shared per-stream state the
  :class:`~repro.core.monitor.FDMonitor` rides: one dictionary encoder
  per attribute (values interned to dense integer codes once, however
  many FDs are watched) plus counts-only trackers shared by every
  watched FD that needs the same attribute set.

Snapshot discipline (how ``Relation.extend`` stays immutable): a
tracker is owned by the *head* of an extension chain.  When a relation
is extended, its trackers move to the child (the parent keeps the
scalar results already copied into its memo caches) and are folded
forward in place.  Materialized partitions always copy the group lists,
so earlier snapshots' cached partitions never observe later folds.
The columns follow the same rule: the snapshots of one chain share an
append-only column log (codes, dictionary, reverse map), each seeing
only its own prefix of rows and dictionary entries.  Only the head —
the snapshot whose prefix is the whole log — appends in place;
extending any other snapshot copies its rows into a private log first
(see :meth:`~repro.relational.encoding.EncodedColumn.extended`).
Sets the parent only counted are promoted to counts-only trackers
(group sizes, no row lists); partitioned and ``track()``ed sets keep
their rows (see ``RelationStatistics.adopt_delta``).

Equivalence contract (property-tested in
``tests/relational/test_delta.py``, same discipline as
``test_kernel_equivalence.py``): all counts, errors, and pair counts
are *exactly* equal to cold computation on both backends; stripped
partitions over a single attribute match cold construction class-for-
class (first-seen order), multi-attribute partitions are equal as sets
of classes (cold class order depends on which refinement path the
lattice happened to take — the documented comparison discipline);
entropies agree to 1e-9 (float sums associate differently).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

from . import kernels

__all__ = ["GroupTracker", "DeltaStream"]


class _SizeMap(dict):
    """The ``key → size`` map of a counts-only tracker over several columns.

    The garbage collector untracks a plain dict whose keys are all
    int tuples at every full collection; the next insert of a fresh
    tuple key tracks it again in the youngest generation, so young
    collections walk all of its entries after each full one.  A dict
    subclass is never untracked: it ages into the oldest generation
    once and stays there.
    """

    __slots__ = ()


class GroupTracker:
    """Incrementally maintained grouping of rows by one attribute set.

    Build once (O(n)), then :meth:`extend` folds batches in O(Δ) and
    :meth:`observe` folds single tuples in O(1).  All scalar statistics
    are patched from the ``(old_size, new_size)`` transitions the delta
    kernels report, never rescanned.
    """

    __slots__ = (
        "attrs",
        "keep_rows",
        "groups",
        "num_rows",
        "covered_rows",
        "num_classes",
        "agreeing_pairs",
        "_size_hist",
    )

    def __init__(
        self,
        attrs: Sequence[str],
        keep_rows: bool = True,
        maintain_hist: bool = True,
    ) -> None:
        self.attrs = tuple(attrs)
        self.keep_rows = keep_rows
        #: ``key → row list`` (or ``key → size`` when counts-only), in
        #: first-seen row order; keys are ints (one column) or tuples.
        self.groups: dict = {}
        self.num_rows = 0
        #: Rows living in groups of size ≥ 2 (the stripped ``covered``).
        self.covered_rows = 0
        #: Groups of size ≥ 2 (the stripped class count).
        self.num_classes = 0
        #: ``Σ C(s, 2)`` over all groups — pairs agreeing on the set.
        self.agreeing_pairs = 0
        #: ``size → count`` over groups of size ≥ 2 (entropy support);
        #: ``None`` when not maintained (the monitor's per-tuple path
        #: skips it and :meth:`entropy` recomputes on demand instead).
        self._size_hist: dict[int, int] | None = {} if maintain_hist else None

    # ------------------------------------------------------------------
    # Construction and maintenance
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        attrs: Sequence[str],
        code_columns: Sequence[Sequence[int]],
        num_rows: int,
        keep_rows: bool = True,
    ) -> "GroupTracker":
        """Cold-build a tracker from full code columns (O(n), once)."""
        tracker = cls(attrs, keep_rows)
        tracker.num_rows = num_rows
        if num_rows:
            tracker.groups = kernels.get_backend().group_index(
                code_columns, keep_rows
            )
            tracker._init_scalars()
        if not keep_rows and len(code_columns) > 1:
            tracker.groups = _SizeMap(tracker.groups)
        return tracker

    def _init_scalars(self) -> None:
        sizes = (
            map(len, self.groups.values())
            if self.keep_rows
            else self.groups.values()
        )
        covered = classes = pairs = 0
        hist = self._size_hist
        for size in sizes:
            if size >= 2:
                covered += size
                classes += 1
                pairs += size * (size - 1) // 2
                if hist is not None:
                    hist[size] = hist.get(size, 0) + 1
        self.covered_rows = covered
        self.num_classes = classes
        self.agreeing_pairs = pairs

    def extend(self, code_columns: Sequence[Sequence[int]], start_row: int) -> None:
        """Fold rows ``start_row..`` of the (grown) columns in, O(Δ)."""
        transitions = kernels.get_backend().extend_group_index(
            self.groups, code_columns, start_row, self.keep_rows
        )
        self.num_rows = len(code_columns[0])
        self._apply(transitions)

    def observe(self, key: Any, row: int | None = None) -> None:
        """Fold one tuple with this composite ``key`` (stream path)."""
        if self.keep_rows:
            bucket = self.groups.get(key)
            if bucket is None:
                bucket = self.groups[key] = []
            old = len(bucket)
            bucket.append(self.num_rows if row is None else row)
        else:
            old = self.groups.get(key, 0)
            self.groups[key] = old + 1
        self.num_rows += 1
        # Inlined single-row transition (the per-tuple monitor path).
        hist = self._size_hist
        if old >= 2:
            self.covered_rows += 1
            self.agreeing_pairs += old
            if hist is not None:
                remaining = hist[old] - 1
                if remaining:
                    hist[old] = remaining
                else:
                    del hist[old]
                hist[old + 1] = hist.get(old + 1, 0) + 1
        elif old == 1:
            self.covered_rows += 2
            self.num_classes += 1
            self.agreeing_pairs += 1
            if hist is not None:
                hist[2] = hist.get(2, 0) + 1

    def _apply(self, transitions) -> None:
        hist = self._size_hist
        for old, new in transitions:
            if old >= 2:
                self.covered_rows -= old
                self.num_classes -= 1
                self.agreeing_pairs -= old * (old - 1) // 2
                if hist is not None:
                    remaining = hist[old] - 1
                    if remaining:
                        hist[old] = remaining
                    else:
                        del hist[old]
            if new >= 2:
                self.covered_rows += new
                self.num_classes += 1
                self.agreeing_pairs += new * (new - 1) // 2
                if hist is not None:
                    hist[new] = hist.get(new, 0) + 1

    # ------------------------------------------------------------------
    # Readable statistics (all O(1) or O(#distinct sizes))
    # ------------------------------------------------------------------
    @property
    def num_distinct(self) -> int:
        """``|π_X(r)|`` — one group per distinct value combination."""
        return len(self.groups)

    @property
    def num_singletons(self) -> int:
        """Rows whose value combination is unique so far."""
        return self.num_rows - self.covered_rows

    def error(self) -> int:
        """TANE's ``e(X) = covered − classes`` (0 iff the set is a key)."""
        return self.covered_rows - self.num_classes

    def entropy(self) -> float:
        """``H(π_X) = log n − (Σ s·log s)/n`` off the size histogram.

        Singleton groups contribute ``1·log 1 = 0``, so the sum runs
        over the ≥ 2 histogram only; ``math.fsum`` over sorted sizes
        keeps the result deterministic and drift-free however many
        increments the tracker has absorbed.
        """
        n = self.num_rows
        if n == 0:
            return 0.0
        hist = self._size_hist
        if hist is None:
            # Not maintained per tuple (counts-only stream trackers):
            # rebuild on demand, O(#groups).
            hist = {}
            sizes = (
                map(len, self.groups.values())
                if self.keep_rows
                else self.groups.values()
            )
            for size in sizes:
                if size >= 2:
                    hist[size] = hist.get(size, 0) + 1
        weighted = math.fsum(
            count * size * math.log(size)
            for size, count in sorted(hist.items())
        )
        return math.log(n) - weighted / n

    def stripped_partition(self):
        """Materialize the stripped partition (size-≥ 2 groups).

        Group lists are copied so the returned partition stays valid
        when the tracker folds further rows in; the representation
        (list- or array-backed) follows the active kernel backend.
        Class order is the group map's first-seen row order — identical
        to cold construction for single attributes, set-equal for
        multi-attribute sets (see the module docstring).
        """
        if not self.keep_rows:
            raise ValueError(
                "counts-only tracker cannot materialize partitions"
            )
        classes = [
            list(bucket) for bucket in self.groups.values() if len(bucket) >= 2
        ]
        return kernels.get_backend().stripped_from_classes(classes, self.num_rows)

    def __repr__(self) -> str:
        kind = "rows" if self.keep_rows else "counts"
        return (
            f"GroupTracker({'·'.join(self.attrs)}: {self.num_distinct} groups "
            f"over {self.num_rows} rows, {kind})"
        )


class DeltaStream:
    """Shared incremental statistics over one append-only tuple stream.

    One dictionary encoder per attribute interns every value to a dense
    integer code exactly once per tuple, however many watchers consume
    it; counts-only :class:`GroupTracker` instances are registered per
    attribute set and shared by every watcher that requests the same
    set *at the same stream position* (watchers registered mid-stream
    get fresh trackers so their statistics cover only the rows they
    actually saw — the monitor's documented late-watcher semantics).
    """

    def __init__(self, schema) -> None:
        self._schema = schema
        self._encoders: list[dict[Any, int]] = [
            {} for _ in range(schema.arity)
        ]
        self._num_rows = 0
        #: ``(positions, start_row) → tracker``; counts-only.
        self._trackers: dict[tuple[tuple[int, ...], int], GroupTracker] = {}
        #: Flat dispatch list for the per-tuple hot loop: single
        #: positions are stored as a bare int so the common one-column
        #: key needs no tuple building at all.
        self._active: list[tuple[int | tuple[int, ...], GroupTracker]] = []

    @property
    def num_rows(self) -> int:
        """Tuples folded in so far."""
        return self._num_rows

    def tracker(self, attrs: Sequence[str]) -> GroupTracker:
        """The shared tracker for ``attrs`` starting at the current row.

        Requesting the same attribute set again before any further
        tuple arrives returns the same tracker (one structure serving
        all FDs watched together); requests after rows have flowed get
        a fresh tracker covering only the suffix.
        """
        positions = tuple(sorted(self._schema.positions(attrs)))
        key = (positions, self._num_rows)
        tracker = self._trackers.get(key)
        if tracker is None:
            names = [self._schema.attribute_names[p] for p in positions]
            tracker = GroupTracker(names, keep_rows=False, maintain_hist=False)
            self._trackers[key] = tracker
            self._active.append(
                (positions[0] if len(positions) == 1 else positions, tracker)
            )
        return tracker

    def append(self, row: Sequence[Any]) -> None:
        """Encode one tuple and fold it into every registered tracker."""
        codes: list[int] = []
        append_code = codes.append
        for value, encoder in zip(row, self._encoders):
            if value is None:
                append_code(-1)
                continue
            code = encoder.get(value)
            if code is None:
                code = len(encoder)
                encoder[value] = code
            append_code(code)
        for positions, tracker in self._active:
            if positions.__class__ is int:
                tracker.observe(codes[positions])
            elif len(positions) == 2:
                tracker.observe((codes[positions[0]], codes[positions[1]]))
            else:
                tracker.observe(tuple([codes[p] for p in positions]))
        self._num_rows += 1
