"""NumPy-vectorized kernels (argsort + run-length grouping on int64).

Same surface as :mod:`.python_backend`, but every hot loop is replaced
by array operations:

* grouping (partition construction, refinement, products) runs as one
  stable sort plus boundary detection instead of dict building;
* multi-column keys are *packed* into a single ``int64`` when the code
  ranges allow it (they essentially always do — spans multiply, and
  ``ids × codes`` stays far under 2⁶³ at any realistic scale), falling
  back to ``np.lexsort`` otherwise;
* distinct counting, the entropy sums, and violating-pair counting are
  reductions over the same sorted-key machinery.

The partition representation is :class:`ArrayStrippedPartition`: the
flat (rows, class-ids) form stored natively as parallel ``int64``
arrays plus a CSR-style offsets vector.  It exposes the full
``StrippedPartition`` interface — iteration yields plain ``list[int]``
classes — so every existing consumer works unchanged, and class order
matches the reference backend's flat-scan order (groups by first
occurrence, rows ascending within a class), keeping downstream witness
enumeration deterministic across backends.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import Any

import numpy as np

from ..partition import Partition, StrippedPartition
from . import python_backend

NAME = "numpy"

_INT = np.int64
#: Packed composite keys must stay well inside int64.
_PACK_LIMIT = 1 << 62


def _as_array(codes: Sequence[int]) -> np.ndarray:
    """Coerce a code column (list or array) to a read-only int64 array."""
    return np.asarray(codes, dtype=_INT)


def column_codes(column) -> np.ndarray:
    """The column's codes as a cached immutable int64 array."""
    arr = column._codes_array
    if arr is None:
        arr = _as_array(column.codes)
        arr.flags.writeable = False
        column._codes_array = arr
    return arr


# ----------------------------------------------------------------------
# Composite-key grouping machinery
# ----------------------------------------------------------------------
def _pack(keys: Sequence[np.ndarray]) -> np.ndarray | None:
    """Pack parallel key arrays into one int64 key, or ``None`` if the
    combined range could overflow (the lexsort fallback handles that)."""
    if len(keys) == 1:
        return keys[0]
    total = 1
    packed: np.ndarray | None = None
    for key in keys:
        lo = int(key.min())
        span = int(key.max()) - lo + 1
        total *= span
        if total > _PACK_LIMIT:
            return None
        shifted = key - lo
        packed = shifted if packed is None else packed * span + shifted
    return packed


def _sorted_key_change(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping order and group-boundary flags for composite keys.

    Returns ``(perm, change)``: ``perm`` sorts the elements by key with
    ties in original order, ``change[i]`` marks the first element of
    each group in sorted order.
    """
    m = keys[0].shape[0]
    change = np.empty(m, dtype=bool)
    change[0] = True
    packed = _pack(keys)
    if packed is not None:
        perm = np.argsort(packed, kind="stable")
        sorted_key = packed[perm]
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:])
    else:
        perm = np.lexsort(tuple(reversed(keys)))
        change[1:] = False
        for key in keys:
            sorted_key = key[perm]
            change[1:] |= sorted_key[1:] != sorted_key[:-1]
    return perm, change


def _group_counts(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Sizes of the groups induced by the composite key (any order)."""
    m = keys[0].shape[0]
    if m == 0:
        return np.zeros(0, dtype=_INT)
    packed = _pack(keys)
    if packed is not None:
        sorted_key = np.sort(packed, kind="stable")
        change = np.empty(m, dtype=bool)
        change[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:])
    else:
        _, change = _sorted_key_change(keys)
    starts = np.flatnonzero(change)
    return np.diff(np.append(starts, m))


def _distinct(keys: Sequence[np.ndarray]) -> int:
    """Number of distinct composite keys."""
    m = keys[0].shape[0]
    if m == 0:
        return 0
    packed = _pack(keys)
    if packed is not None:
        sorted_key = np.sort(packed, kind="stable")
        return int((sorted_key[1:] != sorted_key[:-1]).sum()) + 1
    _, change = _sorted_key_change(keys)
    return int(change.sum())


# ----------------------------------------------------------------------
# The array-backed stripped partition
# ----------------------------------------------------------------------
class ArrayStrippedPartition:
    """A stripped partition stored natively in flat array form.

    ``rows``/``ids`` are the covered rows and their class ids, class-
    major (class order, ascending row within a class); ``offsets`` is
    the CSR boundary vector (``offsets[c]:offsets[c+1]`` slices class
    ``c`` out of ``rows``).  All counting identities of
    :class:`~repro.relational.partition.StrippedPartition` hold
    unchanged, and the interface is drop-in compatible.
    """

    __slots__ = ("rows", "ids", "offsets", "num_rows", "covered_rows", "_classes")

    def __init__(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        offsets: np.ndarray,
        num_rows: int,
    ) -> None:
        self.rows = rows
        self.ids = ids
        self.offsets = offsets
        self.num_rows = num_rows
        self.covered_rows = int(rows.shape[0])
        self._classes: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def single_class(cls, num_rows: int) -> "ArrayStrippedPartition":
        """The trivial partition over ``X = ∅`` (stripped)."""
        if num_rows <= 1:
            return _empty(num_rows)
        rows = np.arange(num_rows, dtype=_INT)
        ids = np.zeros(num_rows, dtype=_INT)
        offsets = np.array([0, num_rows], dtype=_INT)
        return cls(rows, ids, offsets, num_rows)

    @classmethod
    def from_codes(cls, codes: Sequence[int]) -> "ArrayStrippedPartition":
        """Stripped partition of rows by one column's value codes."""
        arr = _as_array(codes)
        n = int(arr.shape[0])
        return _regroup(np.arange(n, dtype=_INT), [arr], n)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def refine(self, *code_columns: Sequence[int]) -> "ArrayStrippedPartition":
        """Product with the partition(s) induced by columns, O(covered log).

        Group order mirrors the reference backend exactly: its dense
        path (covered ≥ 0.7·n) scans whole columns in row order, its
        sparse path scans the flat form — so the first-seen order the
        dict loops produce is min-row vs min-flat-position respectively.
        """
        if self.covered_rows == 0:
            return _empty(self.num_rows)
        keys = [self.ids]
        keys.extend(_as_array(codes)[self.rows] for codes in code_columns)
        dense = 10 * self.covered_rows >= 7 * self.num_rows
        return _regroup(self.rows, keys, self.num_rows, order_by_row=dense)

    def refined_error(self, *code_columns: Sequence[int]) -> int:
        """``e(X·A₁…A_k)`` without materializing the product."""
        if self.covered_rows == 0:
            return 0
        keys = [self.ids]
        keys.extend(_as_array(codes)[self.rows] for codes in code_columns)
        return self.covered_rows - _distinct(keys)

    def product(self, other) -> "ArrayStrippedPartition":
        """Stripped product with another partition (either backend)."""
        other_rows, other_ids = _flat_arrays(other)
        if self.covered_rows == 0 or other_rows.shape[0] == 0:
            return _empty(self.num_rows)
        owner = np.full(self.num_rows, -1, dtype=_INT)
        owner[self.rows] = self.ids
        own = owner[other_rows]
        mask = own >= 0
        rows = other_rows[mask]
        if rows.shape[0] == 0:
            return _empty(self.num_rows)
        return _regroup(rows, [other_ids[mask], own[mask]], self.num_rows)

    def to_partition(self) -> Partition:
        """Reattach the implicit singletons, yielding a full partition."""
        classes = [list(cls_rows) for cls_rows in self.classes]
        covered = np.zeros(self.num_rows, dtype=bool)
        covered[self.rows] = True
        classes.extend([int(row)] for row in np.flatnonzero(~covered))
        return Partition(classes, self.num_rows)

    # ------------------------------------------------------------------
    # Counting identities
    # ------------------------------------------------------------------
    def error(self) -> int:
        """TANE's ``e(X) = covered − |classes|``; 0 iff X is a key."""
        return self.covered_rows - self.num_classes

    @property
    def num_distinct(self) -> int:
        """``|π_X(r)| = n − e(X)``: the distinct count the CB measures use."""
        return self.num_rows - self.covered_rows + self.num_classes

    @property
    def num_classes(self) -> int:
        """Number of *stored* (size ≥ 2) classes."""
        return int(self.offsets.shape[0]) - 1

    @property
    def num_singletons(self) -> int:
        """Rows living in implicit singleton classes."""
        return self.num_rows - self.covered_rows

    @property
    def classes(self) -> list[list[int]]:
        """Stored classes as plain row-index lists (lazily materialized)."""
        if self._classes is None:
            rows, offsets = self.rows, self.offsets
            self._classes = [
                rows[offsets[c] : offsets[c + 1]].tolist()
                for c in range(self.num_classes)
            ]
        return self._classes

    def sizes_array(self) -> np.ndarray:
        """Stored class sizes as an int64 array (entropy kernels)."""
        return np.diff(self.offsets)

    def class_sizes(self) -> list[int]:
        """Sizes of the stored classes (singletons excluded)."""
        return np.diff(self.offsets).tolist()

    def class_index_array(self) -> np.ndarray:
        """Per-row class ids; implicit singletons get fresh ids."""
        index = np.full(self.num_rows, -1, dtype=_INT)
        index[self.rows] = self.ids
        mask = index < 0
        singles = int(mask.sum())
        if singles:
            index[mask] = np.arange(
                self.num_classes, self.num_classes + singles, dtype=_INT
            )
        return index

    def class_index(self) -> list[int]:
        """For each row, a class id; implicit singletons get fresh ids."""
        return self.class_index_array().tolist()

    def index_sizes_array(self) -> np.ndarray:
        """Class sizes aligned with :meth:`class_index_array` ids."""
        return np.concatenate(
            [np.diff(self.offsets), np.ones(self.num_singletons, dtype=_INT)]
        )

    def index_sizes(self) -> list[int]:
        """Class sizes aligned with the ids of :meth:`class_index`."""
        return self.index_sizes_array().tolist()

    def __len__(self) -> int:
        return self.num_classes

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.classes)

    def __repr__(self) -> str:
        return (
            f"ArrayStrippedPartition({self.num_classes} classes over "
            f"{self.covered_rows}/{self.num_rows} rows)"
        )


def _empty(num_rows: int) -> ArrayStrippedPartition:
    return ArrayStrippedPartition(
        np.zeros(0, dtype=_INT),
        np.zeros(0, dtype=_INT),
        np.zeros(1, dtype=_INT),
        num_rows,
    )


def _regroup(
    rows: np.ndarray,
    keys: Sequence[np.ndarray],
    num_rows: int,
    order_by_row: bool = False,
) -> ArrayStrippedPartition:
    """Group ``rows`` by composite key, keeping only groups of size ≥ 2.

    ``rows`` arrive in flat-scan order (row order for construction,
    class-major for refinement); output groups are ordered first-seen —
    by minimal flat position, or by minimal row when ``order_by_row``
    (the reference backend's dense-scan insertion order) — and rows
    within a group keep flat order, exactly matching the dict-insertion
    order of the reference backend's grouping loops.
    """
    m = int(rows.shape[0])
    if m == 0:
        return _empty(num_rows)
    perm, change = _sorted_key_change(keys)
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, m))
    keep = counts >= 2
    if not keep.any():
        return _empty(num_rows)
    kept = np.flatnonzero(keep)
    # Stable sort ⇒ a group's first sorted element has its minimal flat
    # position (and, as flat order is row-ascending within a class, its
    # minimal row); ordering kept groups by it is first-seen order.
    firsts = perm[starts[kept]]
    order = np.argsort(rows[firsts] if order_by_row else firsts, kind="stable")
    kept_in_order = kept[order]
    new_id = np.full(counts.shape[0], -1, dtype=_INT)
    new_id[kept_in_order] = np.arange(kept_in_order.shape[0], dtype=_INT)
    group_of = np.cumsum(change) - 1
    elem_new = new_id[group_of]
    mask = elem_new >= 0
    sel_pos = perm[mask]
    sel_ids = elem_new[mask]
    final = np.argsort(sel_ids, kind="stable")
    sizes = counts[kept_in_order]
    offsets = np.empty(sizes.shape[0] + 1, dtype=_INT)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    return ArrayStrippedPartition(
        rows[sel_pos[final]], sel_ids[final], offsets, num_rows
    )


def _flat_arrays(partition) -> tuple[np.ndarray, np.ndarray]:
    """(rows, class ids) flat arrays for a partition of either backend."""
    if isinstance(partition, ArrayStrippedPartition):
        return partition.rows, partition.ids
    if isinstance(partition, StrippedPartition):
        flat_rows, flat_ids = partition._flat()
        return _as_array(flat_rows), _as_array(flat_ids)
    # Full Partition: every class is stored, including singletons.
    rows = np.concatenate(
        [np.zeros(0, dtype=_INT)]
        + [_as_array(cls_rows) for cls_rows in partition.classes]
    )
    ids = np.repeat(
        np.arange(len(partition.classes), dtype=_INT),
        [len(cls_rows) for cls_rows in partition.classes],
    )
    return rows, ids


# ----------------------------------------------------------------------
# Dictionary encoding
# ----------------------------------------------------------------------
def factorize(
    values: Iterable[Any],
) -> tuple[list[int], list[Any], dict[Any, int] | None, np.ndarray | None]:
    """First-seen dictionary encoding via ``np.unique`` factorization.

    The vectorized path covers homogeneous ``int`` and ``str`` columns
    (with or without NULLs) — the shapes the generators and CSV reader
    produce.  Mixed-type, ``bool`` and ``float`` columns keep the exact
    reference semantics by falling back to the dict loop (NumPy would
    coerce ``True``/``1`` together and collapse NaNs, changing codes).
    """
    values = values if isinstance(values, list) else list(values)
    if not values:
        return [], [], {}, None
    types = set(map(type, values))
    has_null = type(None) in types
    types.discard(type(None))
    if types == {int} or types == {str}:
        try:
            return _factorize_fast(values, has_null)
        except (OverflowError, TypeError, ValueError):
            pass  # e.g. ints beyond int64: the reference loop handles them
    return python_backend.factorize(values)


def _factorize_fast(
    values: list[Any], has_null: bool
) -> tuple[list[int], list[Any], dict[Any, int] | None, np.ndarray]:
    if has_null:
        non_null = [v for v in values if v is not None]
        if not non_null:
            codes = np.full(len(values), -1, dtype=_INT)
            codes.flags.writeable = False
            return codes.tolist(), [], {}, codes
        arr = np.asarray(non_null)
    else:
        arr = np.asarray(values)
    if arr.dtype == object:
        raise TypeError("mixed-type column; use the reference loop")
    if arr.dtype.kind == "U":
        # Fixed-width unicode storage treats trailing NULs as padding:
        # '\x00' would round-trip as '' and collapse with it.  Punt
        # such (pathological) columns to the reference loop.
        non_null = non_null if has_null else values
        if any(v and v[-1] == "\x00" for v in non_null):
            raise TypeError("NUL-padded strings; use the reference loop")
    uniques, first_pos, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty(uniques.shape[0], dtype=_INT)
    rank[order] = np.arange(uniques.shape[0], dtype=_INT)
    dictionary = uniques[order].tolist()
    if has_null:
        codes = np.full(len(values), -1, dtype=_INT)
        mask = np.fromiter(
            (v is not None for v in values), dtype=bool, count=len(values)
        )
        codes[mask] = rank[inverse]
    else:
        codes = rank[inverse].astype(_INT, copy=False)
    codes.flags.writeable = False
    value_to_code = {value: code for code, value in enumerate(dictionary)}
    return codes.tolist(), dictionary, value_to_code, codes


# ----------------------------------------------------------------------
# Stripped partitions (module-level constructors, backend surface)
# ----------------------------------------------------------------------
def stripped_single_class(num_rows: int) -> ArrayStrippedPartition:
    """π_∅ (stripped): one class holding every row."""
    return ArrayStrippedPartition.single_class(num_rows)


def stripped_from_codes(codes: Sequence[int]) -> ArrayStrippedPartition:
    """Stripped partition of rows by one column's value codes."""
    return ArrayStrippedPartition.from_codes(codes)


def stripped_from_classes(
    classes: list[list[int]], num_rows: int
) -> ArrayStrippedPartition:
    """Wrap already-grouped classes (the delta engine's materializer)."""
    if not classes:
        return _empty(num_rows)
    sizes = np.fromiter(map(len, classes), dtype=_INT, count=len(classes))
    rows = np.fromiter(chain.from_iterable(classes), dtype=_INT, count=int(sizes.sum()))
    ids = np.repeat(np.arange(len(classes), dtype=_INT), sizes)
    offsets = np.empty(sizes.shape[0] + 1, dtype=_INT)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    return ArrayStrippedPartition(rows, ids, offsets, num_rows)


# ----------------------------------------------------------------------
# Delta maintenance (group indexes for the incremental engine)
# ----------------------------------------------------------------------
def _grouped_tail(
    arrays: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[list[int]]]:
    """Sort-grouped view of parallel key arrays, in first-seen order.

    Returns ``(perm, starts, ends, order, key_columns)`` where ``order``
    ranks groups by first occurrence and ``key_columns`` holds each
    group's key values (as python ints) aligned with sorted-group ids.
    """
    m = int(arrays[0].shape[0])
    perm, change = _sorted_key_change(arrays)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], m)
    firsts = perm[starts]
    order = np.argsort(firsts, kind="stable")
    key_columns = [arr[firsts].tolist() for arr in arrays]
    return perm, starts, ends, order, key_columns


def group_index(
    code_columns: Sequence[Sequence[int]], keep_rows: bool = True
) -> dict:
    """Full grouping by composite key, first-seen order (sort-based).

    Same contract as the reference kernel: every group kept (including
    singletons), int keys for one column, tuple keys for several, row
    lists ascending.  Keys are plain python ints so indexes stay
    interoperable across backend switches mid-stream.
    """
    arrays = [_as_array(codes) for codes in code_columns]
    if arrays[0].shape[0] == 0:
        return {}
    perm, starts, ends, order, key_columns = _grouped_tail(arrays)
    keys = key_columns[0] if len(arrays) == 1 else list(zip(*key_columns))
    starts_list, ends_list = starts.tolist(), ends.tolist()
    groups: dict = {}
    for group in order.tolist():
        key = keys[group]
        if keep_rows:
            groups[key] = perm[starts_list[group] : ends_list[group]].tolist()
        else:
            groups[key] = ends_list[group] - starts_list[group]
    return groups


def extend_group_index(
    groups: dict,
    code_columns: Sequence[Sequence[int]],
    start_row: int,
    keep_rows: bool = True,
) -> list[tuple[int, int]]:
    """Fold rows ``start_row..`` into ``groups`` in place, O(Δ log Δ).

    The batch is sort-grouped first, so the dict is touched once per
    *distinct* key instead of once per row; transitions mirror the
    reference kernel exactly (one ``(old, new)`` pair per touched key,
    new groups appended in first-seen row order).
    """
    arrays = [_as_array(codes)[start_row:] for codes in code_columns]
    if arrays[0].shape[0] == 0:
        return []
    perm, starts, ends, order, key_columns = _grouped_tail(arrays)
    keys = key_columns[0] if len(arrays) == 1 else list(zip(*key_columns))
    starts_list, ends_list = starts.tolist(), ends.tolist()
    # One bulk conversion; per-group work is then pure list slicing
    # (tiny numpy slices per group would dominate at realistic Δ).
    rows_list = (perm + start_row).tolist() if keep_rows else None
    transitions: list[tuple[int, int]] = []
    for group in order.tolist():
        key = keys[group]
        added = ends_list[group] - starts_list[group]
        if keep_rows:
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = []
            old = len(bucket)
            bucket.extend(rows_list[starts_list[group] : ends_list[group]])
            transitions.append((old, old + added))
        else:
            old = groups.get(key, 0)
            groups[key] = old + added
            transitions.append((old, old + added))
    return transitions


# ----------------------------------------------------------------------
# Predicate masks (the expression IR's leaf primitives)
# ----------------------------------------------------------------------
def mask_fill(num_rows: int, value: bool) -> np.ndarray:
    """A constant mask."""
    return np.full(num_rows, bool(value), dtype=bool)


def as_mask(flags: Sequence[bool], num_rows: int) -> np.ndarray:
    """Coerce an already-computed flag sequence to this backend's mask."""
    if num_rows == 0:
        return np.zeros(0, dtype=bool)
    return np.fromiter(flags, dtype=bool, count=num_rows)


def mask_and(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise conjunction of two masks."""
    return left & right


def mask_or(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise disjunction of two masks."""
    return left | right


def mask_not(mask: np.ndarray) -> np.ndarray:
    """Elementwise negation of a mask."""
    return ~mask


def mask_any(mask: np.ndarray) -> bool:
    """Whether any mask position is set."""
    return bool(mask.any())


def mask_eq_code(codes: Sequence[int], code: int) -> np.ndarray:
    """Rows whose code equals ``code`` (code-space equality)."""
    return _as_array(codes) == code


def mask_in_codes(codes: Sequence[int], wanted: frozenset[int]) -> np.ndarray:
    """Rows whose code is in ``wanted`` (code-space IN)."""
    targets = np.fromiter(wanted, dtype=_INT, count=len(wanted))
    return np.isin(_as_array(codes), targets)


def mask_table_lookup(
    codes: Sequence[int], table: Sequence[bool], null_value: bool
) -> np.ndarray:
    """Per-row truth via a per-code boolean table (NULL gets its own slot).

    Codes are ≥ −1 by the encoding contract, so appending the NULL slot
    at the end lets the ``−1`` codes index it directly.
    """
    lookup = np.empty(len(table) + 1, dtype=bool)
    if table:
        lookup[:-1] = np.asarray(table, dtype=bool)
    lookup[-1] = null_value
    return lookup[_as_array(codes)]


def mask_codes_eq(left: Sequence[int], right: Sequence[int]) -> np.ndarray:
    """Elementwise code equality of two parallel code sequences."""
    return _as_array(left) == _as_array(right)


def remap_codes(
    codes: Sequence[int], mapping: Sequence[int], null_target: int
) -> np.ndarray:
    """``mapping[c]`` per row; NULL codes become ``null_target``."""
    map_arr = np.empty(len(mapping) + 1, dtype=_INT)
    if mapping:
        map_arr[:-1] = np.asarray(mapping, dtype=_INT)
    map_arr[-1] = null_target
    return map_arr[_as_array(codes)]


def filter_mask(mask: np.ndarray) -> np.ndarray:
    """Indices of the set mask positions, ascending (σ's output rows)."""
    return np.flatnonzero(mask)


# ----------------------------------------------------------------------
# Gather / reencode / dedup (columnar row movement)
# ----------------------------------------------------------------------
def _rows_array(rows: Sequence[int]) -> np.ndarray:
    if isinstance(rows, np.ndarray):
        return rows.astype(_INT, copy=False)
    return np.asarray(list(rows) if not hasattr(rows, "__len__") else rows, dtype=_INT)


def gather(codes: Sequence[int], rows: Sequence[int]) -> np.ndarray:
    """Codes at ``rows``, in the given order (no decode, no remap)."""
    rows_arr = _rows_array(rows)
    if rows_arr.size == 0:
        return np.zeros(0, dtype=_INT)
    return _as_array(codes)[rows_arr]


def take_reencode(
    column, rows: Sequence[int]
) -> tuple[list[int], list[Any], dict[Any, int] | None, np.ndarray]:
    """Rows of a column, compactly re-encoded code-to-code.

    Same contract as the reference kernel: first-seen code order, the
    new dictionary shares the parent's value objects, and the result is
    byte-identical to decoding and cold-encoding the rows.
    """
    rows_arr = _rows_array(rows)
    if rows_arr.size == 0:
        empty = np.zeros(0, dtype=_INT)
        empty.flags.writeable = False
        return [], [], {}, empty
    gathered = column_codes(column)[rows_arr]
    uniques, first_pos, inverse = np.unique(
        gathered, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)  # numpy 2.x may return the input shape
    offset = 1 if int(uniques[0]) == -1 else 0
    order = np.argsort(first_pos[offset:], kind="stable")
    rank = np.empty(uniques.shape[0], dtype=_INT)
    if offset:
        rank[0] = -1
    sub = np.empty(order.shape[0], dtype=_INT)
    sub[order] = np.arange(order.shape[0], dtype=_INT)
    rank[offset:] = sub
    new_codes = rank[inverse]
    new_codes.flags.writeable = False
    dictionary = column.dictionary
    new_dictionary = [dictionary[int(code)] for code in uniques[offset:][order]]
    value_to_code = {value: code for code, value in enumerate(new_dictionary)}
    return new_codes.tolist(), new_dictionary, value_to_code, new_codes


def distinct_rows(code_columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Positions of the first occurrence of each distinct code tuple,
    ascending (the DISTINCT-projection keep list)."""
    arrays = [_as_array(codes) for codes in code_columns]
    if not arrays or arrays[0].shape[0] == 0:
        return np.zeros(0, dtype=_INT)
    packed = _pack(arrays)
    if packed is not None:
        _, first_pos = np.unique(packed, return_index=True)
        return np.sort(first_pos).astype(_INT, copy=False)
    perm, change = _sorted_key_change(arrays)
    return np.sort(perm[np.flatnonzero(change)]).astype(_INT, copy=False)


def group_rows(
    code_columns: Sequence[Sequence[int]], rows: Sequence[int]
) -> list[list[int]]:
    """Groups of ``rows`` sharing a composite code key, first-seen order."""
    rows_arr = _rows_array(rows)
    if rows_arr.size == 0:
        return []
    keys = [_as_array(codes)[rows_arr] for codes in code_columns]
    perm, change = _sorted_key_change(keys)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], rows_arr.size)
    order = np.argsort(perm[starts], kind="stable")
    starts_list, ends_list = starts.tolist(), ends.tolist()
    return [
        rows_arr[perm[starts_list[g] : ends_list[g]]].tolist()
        for g in order.tolist()
    ]


# ----------------------------------------------------------------------
# Grouped aggregation (the SQL executor's GROUP BY kernel)
# ----------------------------------------------------------------------
def grouped_aggregate(
    key_columns: Sequence[Sequence[int]],
    rows: Sequence[int],
    distinct_specs: Sequence[Sequence[Sequence[int]]],
) -> tuple[list[tuple[int, ...]], list[int], list[list[int]]]:
    """Group ``rows`` by composite key and aggregate, all vectorized.

    Same contract as the reference kernel: keys in first-seen order,
    per-group ``COUNT(*)``, and per spec the per-group
    ``COUNT(DISTINCT …)`` ignoring rows with NULL in a counted column.
    """
    rows_arr = _rows_array(rows)
    m = rows_arr.size
    if m == 0:
        return [], [], [[] for _ in distinct_specs]
    keys = [_as_array(codes)[rows_arr] for codes in key_columns]
    if not keys:
        keys = [np.zeros(m, dtype=_INT)]
    perm, change = _sorted_key_change(keys)
    starts = np.flatnonzero(change)
    num_groups = starts.shape[0]
    firsts = perm[starts]
    order = np.argsort(firsts, kind="stable")
    new_id = np.empty(num_groups, dtype=_INT)
    new_id[order] = np.arange(num_groups, dtype=_INT)
    gid = np.empty(m, dtype=_INT)
    gid[perm] = new_id[np.cumsum(change) - 1]
    counts = np.bincount(gid, minlength=num_groups).tolist()
    firsts_ordered = firsts[order]
    if key_columns:
        keys_out = list(
            zip(*[key[firsts_ordered].tolist() for key in keys])
        )
    else:
        keys_out = [()] * num_groups
    distincts: list[list[int]] = []
    for spec in distinct_specs:
        spec_arrays = [_as_array(codes)[rows_arr] for codes in spec]
        valid = np.ones(m, dtype=bool)
        for arr in spec_arrays:
            valid &= arr >= 0
        selected = np.flatnonzero(valid)
        if selected.size == 0:
            distincts.append([0] * num_groups)
            continue
        combo_keys = [gid[selected]]
        combo_keys.extend(arr[selected] for arr in spec_arrays)
        perm2, change2 = _sorted_key_change(combo_keys)
        combo_gids = combo_keys[0][perm2[np.flatnonzero(change2)]]
        distincts.append(np.bincount(combo_gids, minlength=num_groups).tolist())
    return keys_out, counts, distincts


# ----------------------------------------------------------------------
# Hash join (code-space natural join kernel)
# ----------------------------------------------------------------------
def hash_join_index(
    left_key_columns: Sequence[Sequence[int]],
    right_key_columns: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Matching ``(left_rows, right_rows)`` index pairs, left-major.

    Implemented as one joint factorization of both sides' keys plus a
    run-length expansion: each left row's matches are the right rows of
    its key group, ascending — identical output order to the reference
    backend's dict-based probe loop.
    """
    left = [_as_array(codes) for codes in left_key_columns]
    right = [_as_array(codes) for codes in right_key_columns]
    n_left = left[0].shape[0]
    n_right = right[0].shape[0]
    empty = np.zeros(0, dtype=_INT)
    if n_left == 0 or n_right == 0:
        return empty, empty
    all_keys = [np.concatenate([l, r]) for l, r in zip(left, right)]
    perm, change = _sorted_key_change(all_keys)
    gid = np.empty(n_left + n_right, dtype=_INT)
    gid[perm] = np.cumsum(change) - 1
    num_groups = int(gid.max()) + 1
    gid_left = gid[:n_left]
    gid_right = gid[n_left:]
    right_counts = np.bincount(gid_right, minlength=num_groups)
    # Right rows bucketed by group, ascending within a bucket (stable).
    right_order = np.argsort(gid_right, kind="stable")
    offsets = np.zeros(num_groups + 1, dtype=_INT)
    np.cumsum(right_counts, out=offsets[1:])
    match_counts = right_counts[gid_left]
    total = int(match_counts.sum())
    if total == 0:
        return empty, empty
    left_rows = np.repeat(np.arange(n_left, dtype=_INT), match_counts)
    run_starts = np.cumsum(match_counts) - match_counts
    within = np.arange(total, dtype=_INT) - np.repeat(run_starts, match_counts)
    right_rows = right_order[np.repeat(offsets[gid_left], match_counts) + within]
    return left_rows, right_rows.astype(_INT, copy=False)


def left_join_index(
    left_key_columns: Sequence[Sequence[int]],
    right_key_columns: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Left-outer variant of :func:`hash_join_index`.

    Same joint-factorization machinery, but unmatched left rows keep a
    slot: their match count is clamped to one and the gathered right
    row is masked to ``-1`` — identical output order to the reference
    backend's probe loop.
    """
    left = [_as_array(codes) for codes in left_key_columns]
    right = [_as_array(codes) for codes in right_key_columns]
    n_left = left[0].shape[0]
    n_right = right[0].shape[0]
    if n_left == 0:
        empty = np.zeros(0, dtype=_INT)
        return empty, empty.copy()
    if n_right == 0:
        return (
            np.arange(n_left, dtype=_INT),
            np.full(n_left, -1, dtype=_INT),
        )
    all_keys = [np.concatenate([l, r]) for l, r in zip(left, right)]
    perm, change = _sorted_key_change(all_keys)
    gid = np.empty(n_left + n_right, dtype=_INT)
    gid[perm] = np.cumsum(change) - 1
    num_groups = int(gid.max()) + 1
    gid_left = gid[:n_left]
    gid_right = gid[n_left:]
    right_counts = np.bincount(gid_right, minlength=num_groups)
    right_order = np.argsort(gid_right, kind="stable")
    offsets = np.zeros(num_groups + 1, dtype=_INT)
    np.cumsum(right_counts, out=offsets[1:])
    match_counts = right_counts[gid_left]
    out_counts = np.where(match_counts > 0, match_counts, 1)
    total = int(out_counts.sum())
    left_rows = np.repeat(np.arange(n_left, dtype=_INT), out_counts)
    run_starts = np.cumsum(out_counts) - out_counts
    within = np.arange(total, dtype=_INT) - np.repeat(run_starts, out_counts)
    matched = np.repeat(match_counts > 0, out_counts)
    # Clamp the gather index so unmatched slots (whose bucket offset may
    # point past the end) stay in bounds before being masked to -1.
    indices = np.minimum(
        np.repeat(offsets[gid_left], out_counts) + within, n_right - 1
    )
    right_rows = np.where(matched, right_order[indices], -1)
    return left_rows, right_rows.astype(_INT, copy=False)


def gather_padded(
    codes: Sequence[int], rows: Sequence[int], fill: int = -1
) -> np.ndarray:
    """Codes at ``rows``; negative row indices yield ``fill``."""
    rows_arr = _rows_array(rows)
    if rows_arr.size == 0:
        return np.zeros(0, dtype=_INT)
    arr = _as_array(codes)
    if arr.size == 0:
        return np.full(rows_arr.size, fill, dtype=_INT)
    picked = arr[np.where(rows_arr < 0, 0, rows_arr)]
    return np.where(rows_arr < 0, fill, picked).astype(_INT, copy=False)


# ----------------------------------------------------------------------
# Sorting (the SQL executor's ORDER BY kernel)
# ----------------------------------------------------------------------
def sort_index(rank_columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Stable ascending lexicographic argsort of parallel rank columns.

    ``np.lexsort`` treats its *last* key as primary, so the columns are
    reversed; lexsort is stable, matching the reference backend's
    ``sorted`` on rank tuples.
    """
    if not rank_columns:
        return np.zeros(0, dtype=_INT)
    keys = [_as_array(codes) for codes in rank_columns]
    if keys[0].shape[0] == 0:
        return np.zeros(0, dtype=_INT)
    return np.lexsort(keys[::-1]).astype(_INT, copy=False)


# ----------------------------------------------------------------------
# Distinct counting
# ----------------------------------------------------------------------
def count_distinct(code_columns: Sequence[Sequence[int]]) -> int:
    """Distinct code tuples across columns (pack + sort reduction)."""
    if not code_columns:
        return 0
    return _distinct([_as_array(codes) for codes in code_columns])


#: Matrix elements per block of :func:`extension_errors` (int64, so
#: ~8 MB per gathered or packed block).
_EXTENSION_BLOCK = 1 << 20


def _row_distinct(matrix: np.ndarray) -> np.ndarray:
    """Distinct values per row of a 2-D key matrix (one row-wise sort)."""
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=_INT)
    ordered = np.sort(matrix, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def extension_errors(
    partition,
    candidate_columns: Sequence[Sequence[int]],
    y_columns: Sequence[Sequence[int]],
) -> list[tuple[int, int]]:
    """``(e(X·A), e(X·A·Y))`` for each candidate column ``A`` over π_X.

    The candidate columns are gathered at π_X's covered rows into one
    matrix per block of candidates; each row is packed with the class
    id (for X·A) or with the id of the row's (X, Y) group (for X·A·Y)
    and counted by a single row-wise sort.  Rows alone in their (X, Y)
    group stay singletons under any A, so only the rest are sorted.
    When a block's packed range could overflow int64 the block falls
    back to per-candidate :func:`_distinct` (lexsort when needed).
    """
    k = len(candidate_columns)
    rows, ids = _flat_arrays(partition)
    covered = int(rows.shape[0])
    if covered == 0:
        return [(0, 0)] * k
    # Group the covered rows by (X class, Y); keep the size-≥ 2 groups.
    perm, change = _sorted_key_change(
        [ids] + [_as_array(codes)[rows] for codes in y_columns]
    )
    group = np.empty(covered, dtype=_INT)
    group[perm] = np.cumsum(change) - 1
    sizes = np.bincount(group)
    xy_pos = np.flatnonzero(sizes[group] >= 2)
    xy_ids = group[xy_pos]
    xy_span = int(sizes.shape[0])
    xy_covered = int(xy_pos.shape[0])
    x_span = int(ids.max()) + 1
    errors: list[tuple[int, int]] = []
    step = max(1, _EXTENSION_BLOCK // covered)
    for lo in range(0, k, step):
        block = np.stack(
            [_as_array(codes)[rows] for codes in candidate_columns[lo : lo + step]]
        )
        low = int(block.min())
        span = int(block.max()) - low + 1
        if max(x_span, xy_span) * span <= _PACK_LIMIT:
            block -= low
            xa = _row_distinct(ids * span + block)
            xay = _row_distinct(xy_ids * span + block[:, xy_pos])
        else:
            xa = [_distinct([ids, codes]) for codes in block]
            xay = [_distinct([xy_ids, codes[xy_pos]]) for codes in block]
        errors.extend((covered - int(a), xy_covered - int(b)) for a, b in zip(xa, xay))
    return errors


# ----------------------------------------------------------------------
# Entropy sums (the EB baseline's kernels)
# ----------------------------------------------------------------------
def _sizes_array(partition) -> np.ndarray:
    if isinstance(partition, ArrayStrippedPartition):
        return partition.sizes_array()
    return _as_array(partition.class_sizes())


def _class_index_array(partition) -> np.ndarray:
    if isinstance(partition, ArrayStrippedPartition):
        return partition.class_index_array()
    return _as_array(partition.class_index())


def _index_sizes_array(partition) -> np.ndarray:
    if isinstance(partition, ArrayStrippedPartition):
        return partition.index_sizes_array()
    return _as_array(partition.index_sizes())


def entropy_from_partition(partition) -> float:
    """``H(C) = −Σ p log p``; implicit singletons contribute in bulk."""
    n = partition.num_rows
    sizes = _sizes_array(partition)
    total = 0.0
    if sizes.shape[0]:
        p = sizes / n
        total = float(-(p * np.log(p)).sum())
    singletons = partition.num_singletons
    if singletons:
        total += singletons * math.log(n) / n
    return total


def _joint_cells(left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(left_cell, right_cell, count)`` arrays over intersecting pairs."""
    left_index = _class_index_array(left)
    right_index = _class_index_array(right)
    keys = [left_index, right_index]
    perm, change = _sorted_key_change(keys)
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, left_index.shape[0]))
    firsts = perm[starts]
    return left_index[firsts], right_index[firsts], counts


def joint_class_counts(left, right) -> dict[tuple[int, int], int]:
    """``|C_k ∩ C′_k′|`` as a dict (API parity with the reference)."""
    if left.num_rows == 0:
        return {}
    l_cells, r_cells, counts = _joint_cells(left, right)
    return {
        (int(l), int(r)): int(c)
        for l, r, c in zip(l_cells.tolist(), r_cells.tolist(), counts.tolist())
    }


def _conditional_from_cells(
    num_rows: int,
    given_sizes: np.ndarray,
    given_cells: np.ndarray,
    counts: np.ndarray,
) -> float:
    p_joint = counts / num_rows
    p_conditional = counts / given_sizes[given_cells]
    mask = p_conditional < 1.0
    if not mask.any():
        return 0.0
    return float(-(p_joint[mask] * np.log(p_conditional[mask])).sum())


def conditional_entropy(target, given) -> tuple[float, int]:
    """``(H(target|given), intersection cells)`` in one joint pass."""
    if target.num_rows == 0:
        return 0.0, 0
    _, g_cells, counts = _joint_cells(target, given)
    value = _conditional_from_cells(
        target.num_rows, _index_sizes_array(given), g_cells, counts
    )
    return value, int(counts.shape[0])


def conditional_entropy_pair(target, given) -> tuple[float, float, int]:
    """Both conditional entropies off one shared joint pass (for VI)."""
    if target.num_rows == 0:
        return 0.0, 0.0, 0
    t_cells, g_cells, counts = _joint_cells(target, given)
    forward = _conditional_from_cells(
        target.num_rows, _index_sizes_array(given), g_cells, counts
    )
    backward = _conditional_from_cells(
        given.num_rows, _index_sizes_array(target), t_cells, counts
    )
    return forward, backward, int(counts.shape[0])


# ----------------------------------------------------------------------
# Evidence masks (the DC engine's pair kernels)
# ----------------------------------------------------------------------
#: Bits per evidence word; evidence masks wider than one word are kept
#: as tuples of int64 lanes and reassembled into Python ints only at
#: aggregation time (distinct masks are few).
EVIDENCE_WORD_BITS = 62
_WORD_MASK = (1 << EVIDENCE_WORD_BITS) - 1

EVIDENCE_OPS = python_backend.EVIDENCE_OPS

#: Cap on pairs evaluated per vectorized chunk: bounds the block
#: kernels' peak memory at O(chunk · words) regardless of tile size.
_EVIDENCE_CHUNK = 1 << 21

#: Largest mixed-radix state space aggregated via ``np.bincount``.
#: Each attribute contributes a factor 3 (ordered) or 2 (unordered);
#: beyond the cap the sweep falls back to sorting mask words.
_COMBO_LIMIT = 1 << 22


def _mask_words(mask: int, num_words: int) -> list[int]:
    return [
        (mask >> (EVIDENCE_WORD_BITS * word)) & _WORD_MASK
        for word in range(num_words)
    ]


def evidence_specs(
    attr_tables: Sequence[tuple],
    rows: Sequence[int],
    mults: Sequence[int],
    num_predicates: int,
) -> dict:
    """Precompute per-attribute pair-evaluation state for the block
    kernels (same contract as the reference backend).

    Ordered attributes are ranked by the exact Python order of their
    distinct comparable values; NULL and NaN rows carry a ``valid``
    flag instead of a rank — the block kernels route such pairs into
    the ``gt`` lane, matching a direct ``<`` comparison (always false).
    """
    rows_arr = _rows_array(rows)
    num_words = max(1, -(-num_predicates // EVIDENCE_WORD_BITS))
    attrs = []
    for codes, values, eq_lane, lt_lane, gt_lane, ne_lane, has_order in attr_tables:
        rep_codes = _as_array(codes)[rows_arr] if rows_arr.size else _as_array([])
        ranks = None
        valid = None
        if has_order:
            rep_values = [values[int(row)] for row in rows_arr.tolist()]
            flags = [
                value is not None and value == value for value in rep_values
            ]
            comparable = sorted(
                {value for value, ok in zip(rep_values, flags) if ok}
            )
            rank_of = {value: rank for rank, value in enumerate(comparable)}
            ranks = np.asarray(
                [rank_of[v] if ok else 0 for v, ok in zip(rep_values, flags)],
                dtype=_INT,
            )
            valid = np.asarray(flags, dtype=bool)
        lanes = []
        for word in range(num_words):
            lanes.append(
                tuple(
                    np.int64(w)
                    for w in (
                        _mask_words(eq_lane, num_words)[word],
                        _mask_words(lt_lane, num_words)[word],
                        _mask_words(gt_lane, num_words)[word],
                        _mask_words(ne_lane, num_words)[word],
                    )
                )
            )
        touched = [
            word for word, lane in enumerate(lanes) if any(int(w) for w in lane)
        ]
        attrs.append((rep_codes, ranks, valid, lanes, touched))
    # The per-pair evidence mask is a pure function of the per-attribute
    # three-way state, so pairs can be aggregated as mixed-radix state
    # combos (one np.bincount, no sort) and each distinct combo decoded
    # to its forward/backward masks once — as long as the state space
    # stays enumerable.
    radixes = [
        3 if has_order else 2
        for _codes, _values, _eq, _lt, _gt, _ne, has_order in attr_tables
    ]
    combo_size = 1
    for radix in radixes:
        combo_size *= radix
        if combo_size > _COMBO_LIMIT:
            combo_size = None
            break
    return {
        "attrs": attrs,
        "mults": np.asarray(list(mults), dtype=_INT),
        "m": int(rows_arr.size),
        "num_words": num_words,
        "radixes": radixes,
        "combo_size": combo_size,
    }


def _combo_luts(specs: dict) -> list:
    """Per attribute, per touched word: state → word-lane lookup tables
    for both pair directions (built once per spec)."""
    luts = specs.get("combo_luts")
    if luts is None:
        luts = []
        for attr, radix in zip(specs["attrs"], specs["radixes"]):
            lanes, touched = attr[3], attr[4]
            per_word = []
            for word in touched:
                eq_lane, lt_lane, gt_lane, ne_lane = lanes[word]
                if radix == 2:
                    fwd = bwd = np.asarray([eq_lane, ne_lane], dtype=_INT)
                else:
                    fwd = np.asarray([eq_lane, lt_lane, gt_lane], dtype=_INT)
                    bwd = np.asarray([eq_lane, gt_lane, lt_lane], dtype=_INT)
                per_word.append((word, fwd, bwd))
            luts.append(per_word)
        specs["combo_luts"] = luts
    return luts


def _accumulate_combos(
    specs: dict, combos: np.ndarray, weights: np.ndarray, counts: dict[int, int]
) -> None:
    """Weighted combo histogram → mask counts (both directions).

    ``np.bincount`` sums int64 weights exactly while they stay under
    2⁵³ (they do: bounded by ordered pair counts).  The distinct combos
    are decoded vectorized — digit extraction by array divmod, word
    lanes by tiny lookup-table gathers — with Python touched only to
    splice multi-word lanes into bignum masks.
    """
    sums = np.bincount(combos, weights=weights.astype(np.float64, copy=False))
    nonzero = np.flatnonzero(sums)
    if nonzero.size == 0:
        return
    group_weights = sums[nonzero].tolist()
    num_words = specs["num_words"]
    forward = [np.zeros(nonzero.size, dtype=_INT) for _ in range(num_words)]
    backward = [np.zeros(nonzero.size, dtype=_INT) for _ in range(num_words)]
    remainder = nonzero.copy()
    luts = _combo_luts(specs)
    for attr_index in reversed(range(len(luts))):
        radix = specs["radixes"][attr_index]
        digits = remainder % radix
        remainder //= radix
        for word, fwd_lut, bwd_lut in luts[attr_index]:
            forward[word] |= fwd_lut[digits]
            backward[word] |= bwd_lut[digits]
    if num_words == 1:
        fwd_masks = forward[0].tolist()
        bwd_masks = backward[0].tolist()
    else:
        fwd_columns = [word.tolist() for word in forward]
        bwd_columns = [word.tolist() for word in backward]
        fwd_masks = []
        bwd_masks = []
        for group in range(nonzero.size):
            mask = 0
            for word in range(num_words):
                mask |= fwd_columns[word][group] << (EVIDENCE_WORD_BITS * word)
            fwd_masks.append(mask)
            mask = 0
            for word in range(num_words):
                mask |= bwd_columns[word][group] << (EVIDENCE_WORD_BITS * word)
            bwd_masks.append(mask)
    for fwd_mask, bwd_mask, weight in zip(fwd_masks, bwd_masks, group_weights):
        weight = int(weight)
        counts[fwd_mask] = counts.get(fwd_mask, 0) + weight
        counts[bwd_mask] = counts.get(bwd_mask, 0) + weight


def _blocks(m: int, tile: int):
    """Yield ``(a, b, jlo, jhi, diagonal)`` row-stripe × column-block
    rectangles covering every pair ``i < j`` exactly once; each
    rectangle holds ≤ the chunk cap pairs.  Diagonal rectangles start
    their columns at the stripe's first row, so only the small
    per-stripe triangle is wasted eval (masked out by the caller)."""
    for ilo in range(0, m, tile):
        ihi = min(ilo + tile, m)
        for jlo in range(ilo, m, tile):
            jhi = min(jlo + tile, m)
            if jlo == ilo:
                a = ilo
                while a < ihi:
                    width = jhi - a
                    stripe = max(1, _EVIDENCE_CHUNK // max(width, 1))
                    b = min(a + stripe, ihi)
                    yield a, b, a, jhi, True
                    a = b
            else:
                width = jhi - jlo
                stripe = max(1, _EVIDENCE_CHUNK // max(width, 1))
                for a in range(ilo, ihi, stripe):
                    b = min(a + stripe, ihi)
                    yield a, b, jlo, jhi, False


def _pair_lanes(attr, lefts: np.ndarray, rights: np.ndarray):
    """Three-way classification arrays ``(equal, less)`` for explicit
    position pairs.

    ``less`` is ``None`` for unordered attributes; the third state
    (left larger / incomparable) is the complement of the two.
    """
    rep_codes, ranks, valid, _lanes, _touched = attr
    equal = rep_codes[lefts] == rep_codes[rights]
    if ranks is None:
        return equal, None
    less = valid[lefts] & valid[rights] & (ranks[lefts] < ranks[rights])
    return equal, less


def _lanes_block(attr, a: int, b: int, jlo: int, jhi: int):
    """Broadcast three-way classification over a block rectangle.

    Slices are contiguous views, so per-attribute work is one
    vectorized comparison — no gather arrays.  Equal codes imply equal
    ranks and NULL/NaN rows are never ``valid``, so ``less`` is false
    exactly where the reference's ``<`` is.
    """
    rep_codes, ranks, valid, _lanes, _touched = attr
    equal = rep_codes[a:b, None] == rep_codes[None, jlo:jhi]
    if ranks is None:
        return equal, None
    less = (valid[a:b, None] & valid[None, jlo:jhi]) & (
        ranks[a:b, None] < ranks[None, jlo:jhi]
    )
    return equal, less


def _accumulate_words(
    words: list[np.ndarray], weights: np.ndarray, counts: dict[int, int]
) -> None:
    """Aggregate per-pair mask words into ``{python int mask: weight}``."""
    perm, change = _sorted_key_change(words)
    starts = np.flatnonzero(change)
    sums = np.add.reduceat(weights[perm], starts)
    firsts = perm[starts]
    columns = [word[firsts].tolist() for word in words]
    for gid, weight in enumerate(sums.tolist()):
        if not weight:  # masked-out pairs (zeroed diagonal weights)
            continue
        mask = 0
        for word, column in enumerate(columns):
            mask |= column[gid] << (EVIDENCE_WORD_BITS * word)
        counts[mask] = counts.get(mask, 0) + weight


def _fold_chunk(
    specs: dict,
    lefts: np.ndarray,
    rights: np.ndarray,
    counts: dict[int, int],
) -> None:
    mults = specs["mults"]
    weights = mults[lefts] * mults[rights]
    if specs["combo_size"] is not None:
        combos = None
        for attr, radix in zip(specs["attrs"], specs["radixes"]):
            equal, less = _pair_lanes(attr, lefts, rights)
            state = _state_of(equal, less)
            if combos is None:
                combos = state
            else:
                combos *= radix
                combos += state
        _accumulate_combos(specs, combos, weights, counts)
        return
    num_words = specs["num_words"]
    size = lefts.size
    forward = [np.zeros(size, dtype=_INT) for _ in range(num_words)]
    backward = [np.zeros(size, dtype=_INT) for _ in range(num_words)]
    for attr in specs["attrs"]:
        equal, less = _pair_lanes(attr, lefts, rights)
        lanes, touched = attr[3], attr[4]
        for word in touched:
            eq_lane, lt_lane, gt_lane, ne_lane = lanes[word]
            if less is None:
                contribution = np.where(equal, eq_lane, ne_lane)
                forward[word] |= contribution
                backward[word] |= contribution
            else:
                forward[word] |= np.where(
                    equal, eq_lane, np.where(less, lt_lane, gt_lane)
                )
                backward[word] |= np.where(
                    equal, eq_lane, np.where(less, gt_lane, lt_lane)
                )
    _accumulate_words(forward, weights, counts)
    _accumulate_words(backward, weights, counts)


def _state_of(equal: np.ndarray, less: np.ndarray | None) -> np.ndarray:
    """Three-way state per pair: 0 equal, 1 left-smaller, 2 otherwise
    (for unordered attributes: 0 equal, 1 different)."""
    if less is None:
        return (~equal).astype(_INT)
    return (~equal).astype(_INT) * 2 - less.astype(_INT)


def _fold_block(
    specs: dict,
    a: int,
    b: int,
    jlo: int,
    jhi: int,
    diagonal: bool,
    counts: dict[int, int],
) -> None:
    """Broadcast-evaluate one block rectangle and aggregate its masks.

    With an enumerable state space the rectangle reduces to a weighted
    ``np.bincount`` over mixed-radix state combos (no sort, masks of
    any width decoded per distinct combo); otherwise evidence words are
    materialized per pair and aggregated by lexsort.
    """
    mults = specs["mults"]
    weights = mults[a:b, None] * mults[None, jlo:jhi]
    if diagonal:
        # Zero out the lower-triangle weights: the pairs contribute
        # nothing, with no gather needed.
        weights = weights * (
            np.arange(a, b, dtype=_INT)[:, None] < np.arange(jlo, jhi, dtype=_INT)
        )
    if specs["combo_size"] is not None:
        combos = None
        for attr, radix in zip(specs["attrs"], specs["radixes"]):
            equal, less = _lanes_block(attr, a, b, jlo, jhi)
            state = _state_of(equal, less)
            if combos is None:
                combos = state
            else:
                combos *= radix
                combos += state
        _accumulate_combos(specs, combos.ravel(), weights.ravel(), counts)
        return
    num_words = specs["num_words"]
    shape = (b - a, jhi - jlo)
    forward = [np.zeros(shape, dtype=_INT) for _ in range(num_words)]
    backward = [np.zeros(shape, dtype=_INT) for _ in range(num_words)]
    for attr in specs["attrs"]:
        equal, less = _lanes_block(attr, a, b, jlo, jhi)
        lanes, touched = attr[3], attr[4]
        for word in touched:
            eq_lane, lt_lane, gt_lane, ne_lane = lanes[word]
            if less is None:
                contribution = np.where(equal, eq_lane, ne_lane)
                forward[word] |= contribution
                backward[word] |= contribution
            else:
                forward[word] |= np.where(
                    equal, eq_lane, np.where(less, lt_lane, gt_lane)
                )
                backward[word] |= np.where(
                    equal, eq_lane, np.where(less, gt_lane, lt_lane)
                )
    flat_forward = [word.ravel() for word in forward]
    flat_backward = [word.ravel() for word in backward]
    flat_weights = weights.ravel()
    _accumulate_words(flat_forward, flat_weights, counts)
    _accumulate_words(flat_backward, flat_weights, counts)


def evidence_sweep(specs: dict, tile: int, counts: dict[int, int]) -> None:
    """Fold the evidence of every unordered pair (both directions) into
    ``counts``, one broadcast block rectangle at a time."""
    m = specs["m"]
    if m < 2:
        return
    for a, b, jlo, jhi, diagonal in _blocks(m, tile):
        _fold_block(specs, a, b, jlo, jhi, diagonal, counts)


def evidence_pairs_into(
    specs: dict,
    lefts: Sequence[int],
    rights: Sequence[int],
    counts: dict[int, int],
) -> None:
    """Fold the evidence of explicit position pairs into ``counts``."""
    lefts_arr = _rows_array(lefts)
    rights_arr = _rows_array(rights)
    if lefts_arr.size == 0:
        return
    for start in range(0, int(lefts_arr.size), _EVIDENCE_CHUNK):
        stop = start + _EVIDENCE_CHUNK
        _fold_chunk(specs, lefts_arr[start:stop], rights_arr[start:stop], counts)


def dc_scan(
    specs: dict,
    pred_ops: Sequence[tuple[int, int]],
    tile: int,
    max_hits: int | None,
) -> tuple[int, list[tuple[int, int]]]:
    """Violations of one DC over every pair, chunk-wise with early exit.

    Only the DC's own attributes are classified, so verification costs
    O(pairs · |DC attrs| / SIMD) regardless of the predicate space.
    Returns ``(violating ordered weight seen, ordered hit pairs)``;
    scanning stops at the first chunk that fills ``max_hits``.
    """
    m = specs["m"]
    mults = specs["mults"]
    attrs = specs["attrs"]
    used = sorted(set(pos for pos, _op in pred_ops))
    weight_seen = 0
    hits: list[tuple[int, int]] = []
    if m < 2:
        return 0, []
    for a, b, jlo, jhi, diagonal in _blocks(m, tile):
        width = jhi - jlo
        lanes = {pos: _lanes_block(attrs[pos], a, b, jlo, jhi) for pos in used}
        tri = (
            np.arange(a, b, dtype=_INT)[:, None] < np.arange(jlo, jhi, dtype=_INT)
            if diagonal
            else None
        )
        weights = None
        for direction in ("fwd", "bwd"):
            sat = tri.copy() if tri is not None else np.ones((b - a, width), dtype=bool)
            for pos, op in pred_ops:
                equal, less = lanes[pos]
                if less is None:
                    greater = None
                else:
                    greater = ~equal & ~less
                if direction == "bwd" and less is not None:
                    less, greater = greater, less
                if op == 0:  # =
                    sat &= equal
                elif op == 1:  # !=
                    sat &= ~equal
                elif op == 2:  # <
                    sat &= less
                elif op == 3:  # <=
                    sat &= equal | less
                elif op == 4:  # >
                    sat &= greater
                else:  # >=
                    sat &= equal | greater
                if not sat.any():
                    break
            positions = np.flatnonzero(sat.ravel())
            if positions.size == 0:
                continue
            if weights is None:
                weights = (mults[a:b, None] * mults[None, jlo:jhi]).ravel()
            weight_seen += int(weights[positions].sum())
            left_rows = (a + positions // width).tolist()
            right_rows = (jlo + positions % width).tolist()
            pairs = (
                zip(left_rows, right_rows)
                if direction == "fwd"
                else zip(right_rows, left_rows)
            )
            hits.extend(pairs)
        if max_hits is not None and len(hits) >= max_hits:
            return weight_seen, hits[:max_hits]
    return weight_seen, hits


# ----------------------------------------------------------------------
# Violating-pair counting
# ----------------------------------------------------------------------
def count_violating_pairs(x_partition, y_columns: Sequence[Sequence[int]]) -> int:
    """Exact number of unordered Definition-2 violating pairs.

    ``Σ_classes C(s,2) − Σ_(class,Y)-groups C(g,2)`` — pairs agreeing
    on X minus those also agreeing on Y, all as two sort reductions.
    """
    rows, ids = _flat_arrays(x_partition)
    if rows.shape[0] == 0:
        return 0
    keys = [ids]
    keys.extend(_as_array(codes)[rows] for codes in y_columns)
    group = _group_counts(keys)
    sizes = _group_counts([ids])
    agree_x = int((sizes * (sizes - 1) // 2).sum())
    agree_xy = int((group * (group - 1) // 2).sum())
    return agree_x - agree_xy
