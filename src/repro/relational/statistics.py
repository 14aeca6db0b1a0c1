"""Per-relation statistics with memoization — counts *and* partitions.

The CB method's entire cost is distinct counting over attribute sets
(the paper implements them as ``SELECT COUNT(DISTINCT …)`` queries,
Section 4.4).  A repair search asks for many overlapping counts —
``|π_X|``, ``|π_XY|``, ``|π_XA|``, ``|π_XAY|`` for every candidate ``A``
— so memoizing them on the relation is the single biggest win.  Keys are
frozensets of attribute names: projection cardinality is order-
insensitive.

On top of the count memo sits the **attribute-set partition cache**: a
``frozenset → StrippedPartition`` map over the lattice of attribute
sets.  When ``|π_XA|`` is requested and π_X is cached, the answer is
one O(covered) refinement instead of a fresh scan — and covered rows
shrink rapidly as X approaches a key.  The repair search goes one step
further: :meth:`RelationStatistics.extension_counts` scores every
candidate ``A`` of a node off π_X in one batched kernel call, counting
``|π_XA|`` and ``|π_XAY|`` without materializing either partition; only
nodes the search actually expands get a cached π.  Because relations
are immutable (every derivation builds a new :class:`Relation`, and
therefore a new statistics object), neither cache can ever go stale;
the only invalidation rule is :meth:`clear`, which callers use to reset
cost accounting between benchmark phases.  The partition cache is an LRU
bounded by :func:`configure_caches` (installed by
``EngineConfig.activate``) so long monitoring runs cannot grow memory
without bound; hit/miss/eviction counters sit next to
``executed_count_queries``.

The third layer is the **delta engine**
(:mod:`repro.relational.delta`): when a relation is produced by
``Relation.extend``, :meth:`adopt_delta` moves the parent's group
trackers over and folds the new rows in (O(Δ)), and promotes attribute
sets the parent had counted or partitioned to trackers of its own
(O(n), once per set per chain).  A set the parent partitioned is
promoted with its row lists, so it can hand out stripped partitions; a
set the parent only counted is promoted counts-only (one size per
group, no row lists), which is all its distinct count, entropy and
agreeing-pair sum need.  Tracked sets then answer those statistics
without any per-window recomputation.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from . import kernels
from .delta import GroupTracker
from .partition import StrippedPartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .encoding import EncodedColumn
    from .schema import RelationSchema

__all__ = [
    "RelationStatistics",
    "configure_caches",
    "partition_cache_limit",
    "tracker_limit",
]

#: Default bound on cached stripped partitions per relation — generous:
#: a 30-attribute discovery at LHS ≤ 3 caches ~4.5k sets and must not
#: thrash (C(30,1) + C(30,2) + C(30,3) = 4525 < 8192).
_DEFAULT_PARTITION_CACHE_LIMIT = 8192
#: Default bound on delta-maintained group trackers per relation; the
#: monitoring path tracks a handful of sets per watched FD, so 64 sets
#: already covers ~20 FDs.
_DEFAULT_TRACKER_LIMIT = 64

_partition_cache_limit: int | None = _DEFAULT_PARTITION_CACHE_LIMIT
_tracker_limit: int | None = _DEFAULT_TRACKER_LIMIT


def _validate_limit(name: str, value: object) -> None:
    """Reject a cache bound that is not a positive ``int`` or ``None``."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer or None, got {value!r}")


def configure_caches(
    partition_cache_size: int | None = _DEFAULT_PARTITION_CACHE_LIMIT,
    delta_track_limit: int | None = _DEFAULT_TRACKER_LIMIT,
) -> None:
    """Install process-wide cache bounds (``None`` = unbounded).

    ``repro.core.config.EngineConfig.activate`` is the public entry
    point; the bounds apply to statistics objects from then on (already
    cached entries are trimmed lazily at the next insertion).
    """
    global _partition_cache_limit, _tracker_limit
    _validate_limit("partition_cache_size", partition_cache_size)
    _validate_limit("delta_track_limit", delta_track_limit)
    _partition_cache_limit = partition_cache_size
    _tracker_limit = delta_track_limit


def partition_cache_limit() -> int | None:
    """The active bound on cached partitions per relation."""
    return _partition_cache_limit


def tracker_limit() -> int | None:
    """The active bound on delta trackers per relation."""
    return _tracker_limit


class RelationStatistics:
    """Memoizing facade over one relation's counting primitives.

    The statistics hold the relation's schema, column map and row count
    — never the :class:`~repro.relational.relation.Relation` itself — so
    the pair forms no reference cycle: a superseded ``extend`` snapshot
    and its whole partition cache are freed by reference counting as
    soon as the last reference to the relation goes.
    """

    __slots__ = (
        "_schema",
        "_columns",
        "_num_rows",
        "_distinct_cache",
        "_raw_count",
        "_partition_cache",
        "_partition_hits",
        "_partitions_built",
        "_partition_evictions",
        "_trackers",
        "_delta_hits",
    )

    def __init__(
        self,
        schema: "RelationSchema",
        columns: Mapping[str, "EncodedColumn"],
        num_rows: int,
    ) -> None:
        self._schema = schema
        self._columns = columns
        self._num_rows = num_rows
        self._distinct_cache: dict[frozenset[str], int] = {}
        self._raw_count = 0
        self._partition_cache: OrderedDict[frozenset[str], StrippedPartition] = (
            OrderedDict()
        )
        self._partition_hits = 0
        self._partitions_built = 0
        self._partition_evictions = 0
        self._trackers: OrderedDict[frozenset[str], GroupTracker] = OrderedDict()
        self._delta_hits = 0

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_distinct(self, attrs: Sequence[str]) -> int:
        """Memoized ``|π_attrs(r)|``.

        Resolution order: the count memo, then the partition cache
        (``|π_X| = n − e(X)``, free), then a delta tracker (maintained
        group map, free), then a one-step refinement when a partition
        of any ``attrs ∖ {A}`` is cached, and only then a raw scan.
        The repair search's batched ``|π_XA|``/``|π_XAY|`` counts go
        through :meth:`extension_counts` instead, which never
        materializes the refined partition.
        """
        key = frozenset(attrs)
        value = self._resolved(key)
        if value is None:
            if len(key) > 1 and self._refinable_from(key) is not None:
                value = self.stripped_partition(list(key)).num_distinct
            else:
                value = self.count_distinct_raw(list(key))
            self._raw_count += 1
            self._distinct_cache[key] = value
        return value

    def _resolved(self, key: frozenset[str]) -> int | None:
        """``|π_key|`` if it is free — memo, partition cache or delta
        tracker, memoized on the way — else ``None`` (a count query)."""
        cached = self._distinct_cache.get(key)
        if cached is not None:
            return cached
        partition = self._partition_cache.get(key)
        if partition is not None:
            self._partition_hits += 1
            self._partition_cache.move_to_end(key)
            value = partition.num_distinct
        else:
            tracker = self._trackers.get(key)
            if tracker is None:
                return None
            self._delta_hits += 1
            self._trackers.move_to_end(key)
            value = tracker.num_distinct
        self._distinct_cache[key] = value
        return value

    def count_distinct_raw(self, attrs: Sequence[str]) -> int:
        """Uncached ``|π_attrs(r)|`` through the active kernel backend.

        NULL counts as one value (GROUP BY semantics).  Touches neither
        the caches nor the counters.
        """
        names = self._schema.validate_names(attrs)
        if not names:
            return 1 if self._num_rows else 0
        if len(names) == 1:
            column = self._columns[names[0]]
            return column.cardinality + (1 if column.has_nulls else 0)
        return kernels.get_backend().count_distinct(
            [self._codes(name) for name in names]
        )

    def extension_counts(
        self,
        x: Sequence[str],
        candidates: Sequence[str],
        y: Sequence[str],
    ) -> list[tuple[int, int]]:
        """``(|π_XA|, |π_XAY|)`` for every ``A`` in ``candidates``.

        These are the two counts the CB measures need per one-attribute
        extension (paper Algorithm 2).  Each set resolves like
        :meth:`count_distinct` — memo, partition cache, delta tracker —
        and each set still missing is one count query, so
        :attr:`executed_count_queries` grows exactly as one
        ``count_distinct`` call per set would make it.  The missing
        counts are answered together by the backend's
        ``extension_errors`` kernel off π_X: no π_XA or π_XAY is
        materialized or cached.  The search builds π_XA only when it
        expands XA.
        """
        x_key = frozenset(x)
        y_key = frozenset(y)
        pairs = [(x_key | {name}, x_key | y_key | {name}) for name in candidates]
        values: dict[frozenset[str], int] = {}
        missing: set[frozenset[str]] = set()
        for pair in pairs:
            for key in pair:
                if key in values or key in missing:
                    continue
                value = self._resolved(key)
                if value is None:
                    missing.add(key)
                    self._raw_count += 1
                else:
                    values[key] = value
        if missing:
            needed = [
                (name, pair)
                for name, pair in zip(candidates, pairs)
                if not missing.isdisjoint(pair)
            ]
            errors = kernels.get_backend().extension_errors(
                self.stripped_partition(sorted(x_key)),
                [self._codes(name) for name, _ in needed],
                [self._codes(name) for name in sorted(y_key - x_key)],
            )
            for (_, pair), pair_errors in zip(needed, errors):
                for key, error in zip(pair, pair_errors):
                    if key not in values:
                        values[key] = self._distinct_cache[key] = self._num_rows - error
        return [(values[xa], values[xay]) for xa, xay in pairs]

    def _column(self, name: str) -> "EncodedColumn":
        self._schema.position(name)  # raise UnknownAttributeError if absent
        return self._columns[name]

    def _codes(self, name: str) -> Sequence[int]:
        """One column's codes in the active backend's representation."""
        return self._column(name).kernel_codes()

    def _refinable_from(self, key: frozenset[str]) -> frozenset[str] | None:
        """A cached ``key ∖ {A}`` subset to refine from, if any.

        Probes in sorted-name order so the chosen subset — and with it
        the class order of every derived partition and downstream
        witness enumeration — is independent of ``PYTHONHASHSEED``.
        """
        for name in sorted(key):
            subset = key - {name}
            if subset in self._partition_cache:
                return subset
        return None

    # ------------------------------------------------------------------
    # The partition lattice cache
    # ------------------------------------------------------------------
    def stripped_partition(self, attrs: Sequence[str]) -> StrippedPartition:
        """The cached stripped partition π_attrs, building it if needed.

        Construction order: a cached partition of any ``attrs ∖ {A}``
        is refined by A's column in O(covered); otherwise a delta
        tracker materializes its group map (no scan); otherwise the
        sorted prefix chain is built (and cached) from the single-
        attribute partitions up.  A single attribute always comes from
        its tracker when it has one (refining π_∅ would group the whole
        column anyway); a multi-attribute set refines first, so its
        partition does not depend on whether the set is tracked.  Only
        trackers that keep rows serve partitions; a counts-only one is
        skipped.
        """
        key = frozenset(attrs)
        partition = self._partition_cache.get(key)
        if partition is not None:
            self._partition_hits += 1
            self._partition_cache.move_to_end(key)
            return partition
        tracker = self._trackers.get(key)
        if (
            tracker is not None
            and tracker.keep_rows
            and (len(key) == 1 or self._refinable_from(key) is None)
        ):
            self._delta_hits += 1
            self._trackers.move_to_end(key)
            partition = tracker.stripped_partition()
        else:
            partition = self._build_partition(key)
        self._store_partition(key, partition)
        self._partitions_built += 1
        return partition

    def _store_partition(self, key: frozenset[str], partition) -> None:
        self._partition_cache[key] = partition
        limit = _partition_cache_limit
        if limit is not None:
            while len(self._partition_cache) > limit:
                self._partition_cache.popitem(last=False)
                self._partition_evictions += 1

    def _build_partition(self, key: frozenset[str]) -> StrippedPartition:
        """Build π_key with the active kernel backend.

        The cache stores whichever representation the backend produced
        (list-based or array-backed); the two interoperate, so entries
        built under different backends still refine each other.
        """
        backend = kernels.get_backend()
        if not key:
            return backend.stripped_single_class(self._num_rows)
        if len(key) == 1:
            (name,) = key
            return backend.stripped_from_codes(self._codes(name))
        subset = self._refinable_from(key)
        if subset is not None:
            (added,) = key - subset
            return self._partition_cache[subset].refine(self._codes(added))
        names = sorted(key)
        prefix = self.stripped_partition(names[:-1])
        return prefix.refine(self._codes(names[-1]))

    def cached_partition(self, attrs: Sequence[str]) -> StrippedPartition | None:
        """The cached partition for ``attrs``, or ``None`` (never builds)."""
        return self._partition_cache.get(frozenset(attrs))

    # ------------------------------------------------------------------
    # The delta engine (incremental maintenance across extensions)
    # ------------------------------------------------------------------
    def track(self, attrs: Sequence[str]) -> GroupTracker:
        """Start (or fetch) delta maintenance for one attribute set.

        The tracker keeps its row lists.  It is built cold once (O(n))
        and from then on rides every ``Relation.extend`` in O(Δ),
        answering distinct counts, entropies, agreeing-pair sums, and
        stripped partitions for this set without recomputation.  A
        counts-only tracker that :meth:`adopt_delta` promoted for the
        set is replaced by one that keeps rows.
        """
        names = self._schema.validate_names(attrs)
        if not names:
            raise ValueError("cannot track the empty attribute set")
        key = frozenset(names)
        tracker = self._trackers.get(key)
        if tracker is not None and tracker.keep_rows:
            self._trackers.move_to_end(key)
            return tracker
        ordered = sorted(key)
        tracker = GroupTracker.build(
            ordered, [self._codes(name) for name in ordered], self._num_rows
        )
        self._trackers.pop(key, None)
        self._store_tracker(key, tracker)
        return tracker

    def tracked(self, attrs: Sequence[str]) -> GroupTracker | None:
        """The tracker for ``attrs`` if one is maintained (never builds)."""
        return self._trackers.get(frozenset(attrs))

    def tracked_entropy(self, attrs: Sequence[str]) -> float | None:
        """``H(π_attrs)`` from the delta tracker, or ``None`` untracked."""
        tracker = self._trackers.get(frozenset(attrs))
        return None if tracker is None else tracker.entropy()

    def tracked_agreeing_pairs(self, attrs: Sequence[str]) -> int | None:
        """``Σ C(s,2)`` over π_attrs groups, or ``None`` untracked.

        ``count_violating_pairs(X → Y)`` is the difference of this sum
        over X and over X ∪ Y — the delta engine's O(1) answer.
        """
        tracker = self._trackers.get(frozenset(attrs))
        return None if tracker is None else tracker.agreeing_pairs

    def _store_tracker(self, key: frozenset[str], tracker: GroupTracker) -> None:
        self._trackers[key] = tracker
        limit = _tracker_limit
        if limit is not None:
            while len(self._trackers) > limit:
                self._trackers.popitem(last=False)

    def adopt_delta(self, parent: "RelationStatistics") -> None:
        """Patch this (fresh) statistics object from a parent's state.

        Called by ``Relation.extend`` once the child relation exists.
        The parent's trackers *move* here and fold the Δ new rows in;
        attribute sets the parent had partitioned or counted (but not
        yet tracked) are promoted to trackers, bounded by the tracker
        limit, oldest-first.  Every adopted set's distinct count is
        pre-filled, so the child answers the monitoring path's queries
        without touching the old rows at all.

        Promotion rule: a set the parent partitioned keeps its rows, so
        its tracker can serve :meth:`stripped_partition`; a set the
        parent only counted is promoted counts-only, which folds Δ into
        one size per group instead of row lists over all n rows.  A
        moved tracker keeps its kind, except that a counts-only one is
        rebuilt with rows (once) when the parent partitioned its set.
        """
        start = parent._num_rows
        partitioned = parent._partition_cache
        keys: list[frozenset[str]] = list(parent._trackers)
        seen = set(keys)
        limit = _tracker_limit
        for source in (partitioned, parent._distinct_cache):
            for key in source:
                if key and key not in seen:
                    seen.add(key)
                    keys.append(key)
        if limit is not None:
            keys = keys[:limit]
        for key in keys:
            tracker = parent._trackers.pop(key, None)
            keep_rows = key in partitioned or (
                tracker is not None and tracker.keep_rows
            )
            ordered = sorted(key)
            code_columns = [self._codes(name) for name in ordered]
            if tracker is None or tracker.keep_rows != keep_rows:
                tracker = GroupTracker.build(
                    ordered, code_columns, self._num_rows, keep_rows
                )
            else:
                tracker.extend(code_columns, start)
            self._store_tracker(key, tracker)
            self._distinct_cache[key] = tracker.num_distinct

    # ------------------------------------------------------------------
    # Simple per-attribute statistics
    # ------------------------------------------------------------------
    def null_count(self, attr: str) -> int:
        """Number of NULLs in one attribute."""
        return self._column(attr).null_count

    def cardinality(self, attr: str) -> int:
        """Distinct non-NULL values of one attribute."""
        return self._column(attr).cardinality

    def is_unique(self, attr: str) -> bool:
        """Whether ``attr`` alone is a key of the instance (UNIQUE).

        The paper singles UNIQUE attributes out: adding one repairs any
        FD but makes the rest of the antecedent useless (Section 3), so
        the goodness ranking penalizes them.
        """
        return self.count_distinct([attr]) == self._num_rows

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    @property
    def executed_count_queries(self) -> int:
        """Raw (memo-missing) distinct counts executed so far."""
        return self._raw_count

    @property
    def cached_entries(self) -> int:
        """Number of memoized attribute sets."""
        return len(self._distinct_cache)

    @property
    def cached_partitions(self) -> int:
        """Number of attribute sets with a cached stripped partition."""
        return len(self._partition_cache)

    @property
    def partition_cache_hits(self) -> int:
        """Lookups answered directly from the partition cache."""
        return self._partition_hits

    @property
    def partitions_built(self) -> int:
        """Stripped partitions materialized (cache misses)."""
        return self._partitions_built

    @property
    def partition_cache_evictions(self) -> int:
        """Partitions dropped by the LRU bound (memory ceiling at work)."""
        return self._partition_evictions

    @property
    def tracked_sets(self) -> int:
        """Attribute sets under delta maintenance."""
        return len(self._trackers)

    @property
    def delta_hits(self) -> int:
        """Lookups answered by a delta tracker (no recomputation)."""
        return self._delta_hits

    def reset_counters(self) -> None:
        """Zero the cost counters (cache contents are kept)."""
        self._raw_count = 0
        self._partition_hits = 0
        self._partitions_built = 0
        self._partition_evictions = 0
        self._delta_hits = 0

    def clear(self) -> None:
        """Drop all cached counts, partitions and trackers; reset counters."""
        self._distinct_cache.clear()
        self._partition_cache.clear()
        self._trackers.clear()
        self.reset_counters()
