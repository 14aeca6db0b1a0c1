"""Pure-Python reference kernels (stdlib loops over ``list[int]``).

This module is the extracted form of the loops the engine ran before
the kernel layer existed; it is the semantic reference the numpy
backend is property-tested against, and the fallback that keeps a
stdlib-pure install fully functional.  Every function here must remain
dependency-free and must keep its exact iteration order — downstream
witness enumeration and the EB cost model are pinned to it.

Canonical backend surface (mirrored by ``numpy_backend``):

* ``factorize(values)`` — dictionary encoding;
* ``column_codes(column)`` — the code representation partition kernels
  want (here: the plain ``list[int]`` itself);
* ``stripped_single_class`` / ``stripped_from_codes`` — partition
  construction (``refine``/``refined_error``/``product`` then live on
  the returned object);
* ``count_distinct(code_columns)`` — multi-column distinct counting;
* ``extension_errors(partition, candidates, y)`` — the repair search's
  batched ``e(X·A)`` / ``e(X·A·Y)`` counts off π_X;
* ``entropy_from_partition`` / ``joint_class_counts`` /
  ``conditional_entropy`` / ``conditional_entropy_pair`` — the EB
  entropy sums;
* ``count_violating_pairs`` — exact Definition-2 pair counting.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any

from ..partition import StrippedPartition

NAME = "python"


# ----------------------------------------------------------------------
# Dictionary encoding
# ----------------------------------------------------------------------
def factorize(
    values: Iterable[Any],
) -> tuple[list[int], list[Any], dict[Any, int] | None, Any]:
    """Encode values into dense first-seen codes (``None`` → ``-1``).

    Returns ``(codes, dictionary, value_to_code, codes_array)``; the
    last slot is the backend's preferred array representation (always
    ``None`` here — lists are already this backend's native form).
    """
    codes: list[int] = []
    dictionary: list[Any] = []
    value_to_code: dict[Any, int] = {}
    append = codes.append
    for value in values:
        if value is None:
            append(-1)
            continue
        code = value_to_code.get(value)
        if code is None:
            code = len(dictionary)
            value_to_code[value] = code
            dictionary.append(value)
        append(code)
    return codes, dictionary, value_to_code, None


def column_codes(column) -> Sequence[int]:
    """The code representation partition kernels consume: the list."""
    return column.codes


# ----------------------------------------------------------------------
# Stripped partitions
# ----------------------------------------------------------------------
def stripped_single_class(num_rows: int) -> StrippedPartition:
    """π_∅ (stripped): one class holding every row."""
    return StrippedPartition.single_class(num_rows)


def stripped_from_codes(codes: Sequence[int]) -> StrippedPartition:
    """Stripped partition of rows by one column's value codes."""
    return StrippedPartition.from_codes(codes)


def stripped_from_classes(
    classes: list[list[int]], num_rows: int
) -> StrippedPartition:
    """Wrap already-grouped classes (the delta engine's materializer).

    ``classes`` must contain only size-≥ 2 groups with ascending rows;
    ownership transfers to the partition (callers pass fresh lists).
    """
    return StrippedPartition(classes, num_rows)


# ----------------------------------------------------------------------
# Delta maintenance (group indexes for the incremental engine)
# ----------------------------------------------------------------------
def group_index(
    code_columns: Sequence[Sequence[int]], keep_rows: bool = True
) -> dict:
    """Full grouping of rows by composite code key, first-seen order.

    Unlike the stripped constructors this keeps *every* group,
    including singletons — the delta engine needs them so a later row
    can promote a singleton to a class.  Keys are ints for one column
    and tuples for several; with ``keep_rows=False`` only group sizes
    are stored (the monitor's counts-only mode).
    """
    groups: dict = {}
    keys = code_columns[0] if len(code_columns) == 1 else zip(*code_columns)
    if keep_rows:
        get = groups.get
        for row, key in enumerate(keys):
            bucket = get(key)
            if bucket is None:
                groups[key] = [row]
            else:
                bucket.append(row)
    else:
        for key in keys:
            groups[key] = groups.get(key, 0) + 1
    return groups


def extend_group_index(
    groups: dict,
    code_columns: Sequence[Sequence[int]],
    start_row: int,
    keep_rows: bool = True,
) -> list[tuple[int, int]]:
    """Fold rows ``start_row..`` into ``groups`` in place, O(Δ).

    Returns one ``(old_size, new_size)`` transition per touched key so
    the tracker can patch its scalar statistics without rescanning.
    New groups are appended in first-seen row order, keeping the
    derived class order identical to a cold :func:`group_index`.
    """
    num_rows = len(code_columns[0])
    single = len(code_columns) == 1
    codes0 = code_columns[0]
    touched: dict = {}
    record = touched.setdefault
    if keep_rows:
        get = groups.get
        for row in range(start_row, num_rows):
            key = codes0[row] if single else tuple(c[row] for c in code_columns)
            bucket = get(key)
            if bucket is None:
                groups[key] = [row]
                record(key, 0)
            else:
                record(key, len(bucket))
                bucket.append(row)
        return [(old, len(groups[key])) for key, old in touched.items()]
    for row in range(start_row, num_rows):
        key = codes0[row] if single else tuple(c[row] for c in code_columns)
        old = groups.get(key, 0)
        record(key, old)
        groups[key] = old + 1
    return [(old, groups[key]) for key, old in touched.items()]


# ----------------------------------------------------------------------
# Distinct counting
# ----------------------------------------------------------------------
def count_distinct(code_columns: Sequence[Sequence[int]]) -> int:
    """Distinct code tuples across columns (one C-level set pass)."""
    if not code_columns:
        return 0
    if len(code_columns) == 1:
        return len(set(code_columns[0]))
    return len(set(zip(*code_columns)))


def extension_errors(
    partition,
    candidate_columns: Sequence[Sequence[int]],
    y_columns: Sequence[Sequence[int]],
) -> list[tuple[int, int]]:
    """``(e(X·A), e(X·A·Y))`` for each candidate column ``A`` over π_X.

    The repair search's per-candidate counts (``|π_XA| = n − e(X·A)``)
    straight off the partition of ``X``: nothing is materialized.
    """
    return [
        (partition.refined_error(codes), partition.refined_error(codes, *y_columns))
        for codes in candidate_columns
    ]


# ----------------------------------------------------------------------
# Entropy sums (the EB baseline's kernels)
# ----------------------------------------------------------------------
def entropy_from_partition(partition) -> float:
    """``H(C) = −Σ p log p``; implicit singletons contribute in bulk."""
    n = partition.num_rows
    total = 0.0
    for size in partition.class_sizes():
        p = size / n
        total -= p * math.log(p)
    singletons = partition.num_singletons
    if singletons:
        total += singletons * math.log(n) / n
    return total


def joint_class_counts(left, right) -> dict[tuple[int, int], int]:
    """``|C_k ∩ C′_k′|`` for every intersecting class pair."""
    left_index = left.class_index()
    right_index = right.class_index()
    counts: dict[tuple[int, int], int] = {}
    for row in range(left.num_rows):
        key = (left_index[row], right_index[row])
        counts[key] = counts.get(key, 0) + 1
    return counts


def conditional_entropy_from_joint(
    num_rows: int,
    given_sizes: Sequence[int],
    joint: dict[tuple[int, int], int],
) -> float:
    """``H(target|given)`` from precomputed ``(target, given)`` counts."""
    total = 0.0
    for (_, given_class), count in joint.items():
        p_joint = count / num_rows
        p_conditional = count / given_sizes[given_class]
        if p_conditional < 1.0:
            total -= p_joint * math.log(p_conditional)
    return total


def conditional_entropy(target, given) -> tuple[float, int]:
    """``(H(target|given), intersection cells)`` in one joint pass."""
    joint = joint_class_counts(target, given)
    value = conditional_entropy_from_joint(target.num_rows, given.index_sizes(), joint)
    return value, len(joint)


def conditional_entropy_pair(target, given) -> tuple[float, float, int]:
    """Both conditional entropies off one shared joint pass (for VI)."""
    joint = joint_class_counts(target, given)
    forward = conditional_entropy_from_joint(
        target.num_rows, given.index_sizes(), joint
    )
    swapped = {(r, l): count for (l, r), count in joint.items()}
    backward = conditional_entropy_from_joint(
        given.num_rows, target.index_sizes(), swapped
    )
    return forward, backward, len(joint)


# ----------------------------------------------------------------------
# Predicate masks (the expression IR's leaf primitives)
# ----------------------------------------------------------------------
def mask_fill(num_rows: int, value: bool) -> list[bool]:
    """A constant mask."""
    return [bool(value)] * num_rows


def as_mask(flags: Sequence[bool], num_rows: int) -> list[bool]:
    """Coerce an already-computed flag sequence to this backend's mask."""
    return list(flags)


def mask_and(left: Sequence[bool], right: Sequence[bool]) -> list[bool]:
    """Elementwise conjunction of two masks."""
    return [a and b for a, b in zip(left, right)]


def mask_or(left: Sequence[bool], right: Sequence[bool]) -> list[bool]:
    """Elementwise disjunction of two masks."""
    return [a or b for a, b in zip(left, right)]


def mask_not(mask: Sequence[bool]) -> list[bool]:
    """Elementwise negation of a mask."""
    return [not flag for flag in mask]


def mask_any(mask: Sequence[bool]) -> bool:
    """Whether any mask position is set."""
    return any(mask)


def mask_eq_code(codes: Sequence[int], code: int) -> list[bool]:
    """Rows whose code equals ``code`` (code-space equality)."""
    return [c == code for c in codes]


def mask_in_codes(codes: Sequence[int], wanted: frozenset[int]) -> list[bool]:
    """Rows whose code is in ``wanted`` (code-space IN)."""
    return [c in wanted for c in codes]


def mask_table_lookup(
    codes: Sequence[int], table: Sequence[bool], null_value: bool
) -> list[bool]:
    """Per-row truth via a per-code boolean table (NULL gets its own slot)."""
    return [null_value if c < 0 else table[c] for c in codes]


def mask_concat(masks: Sequence[Sequence[bool]]) -> list[bool]:
    """Concatenate row-range mask chunks back into one relation mask."""
    out: list[bool] = []
    for mask in masks:
        out.extend(mask)
    return out


def mask_codes_eq(left: Sequence[int], right: Sequence[int]) -> list[bool]:
    """Elementwise code equality of two parallel code sequences."""
    return [a == b for a, b in zip(left, right)]


def remap_codes(
    codes: Sequence[int], mapping: Sequence[int], null_target: int
) -> list[int]:
    """``mapping[c]`` per row; NULL codes become ``null_target``."""
    return [null_target if c < 0 else mapping[c] for c in codes]


def filter_mask(mask: Sequence[bool]) -> list[int]:
    """Indices of the set mask positions, ascending (σ's output rows)."""
    return [row for row, flag in enumerate(mask) if flag]


# ----------------------------------------------------------------------
# Gather / reencode / dedup (columnar row movement)
# ----------------------------------------------------------------------
def gather(codes: Sequence[int], rows: Sequence[int]) -> list[int]:
    """Codes at ``rows``, in the given order (no decode, no remap)."""
    return [codes[row] for row in rows]


def take_reencode(
    column, rows: Sequence[int]
) -> tuple[list[int], list[Any], dict[Any, int] | None, Any]:
    """Rows of a column as a compactly re-encoded ``(codes, dictionary,
    value_to_code, codes_array)`` quadruple (the ``factorize`` shape).

    Works code-to-code: the remap hashes small ints instead of decoded
    values, and the new dictionary shares the parent's value *objects*.
    First-seen order is preserved, so the result is byte-identical to
    decoding the rows and cold-encoding them.
    """
    codes = column.codes
    dictionary = column.dictionary
    remap: dict[int, int] = {}
    new_codes: list[int] = []
    new_dictionary: list[Any] = []
    for row in rows:
        code = codes[row]
        if code < 0:
            new_codes.append(-1)
            continue
        new_code = remap.get(code)
        if new_code is None:
            new_code = len(new_dictionary)
            remap[code] = new_code
            new_dictionary.append(dictionary[code])
        new_codes.append(new_code)
    value_to_code = {value: code for code, value in enumerate(new_dictionary)}
    return new_codes, new_dictionary, value_to_code, None


def distinct_rows(code_columns: Sequence[Sequence[int]]) -> list[int]:
    """Positions of the first occurrence of each distinct code tuple,
    ascending (the DISTINCT-projection keep list)."""
    if not code_columns:
        return []
    keep: list[int] = []
    if len(code_columns) == 1:
        seen_single: set[int] = set()
        for row, code in enumerate(code_columns[0]):
            if code not in seen_single:
                seen_single.add(code)
                keep.append(row)
        return keep
    seen: set[tuple[int, ...]] = set()
    for row, key in enumerate(zip(*code_columns)):
        if key not in seen:
            seen.add(key)
            keep.append(row)
    return keep


def group_rows(
    code_columns: Sequence[Sequence[int]], rows: Sequence[int]
) -> list[list[int]]:
    """Groups of ``rows`` sharing a composite code key, first-seen order."""
    groups: dict = {}
    single = len(code_columns) == 1
    codes0 = code_columns[0]
    get = groups.get
    for row in rows:
        key = codes0[row] if single else tuple(codes[row] for codes in code_columns)
        bucket = get(key)
        if bucket is None:
            groups[key] = [row]
        else:
            bucket.append(row)
    return list(groups.values())


# ----------------------------------------------------------------------
# Grouped aggregation (the SQL executor's GROUP BY kernel)
# ----------------------------------------------------------------------
def grouped_aggregate(
    key_columns: Sequence[Sequence[int]],
    rows: Sequence[int],
    distinct_specs: Sequence[Sequence[Sequence[int]]],
) -> tuple[list[tuple[int, ...]], list[int], list[list[int]]]:
    """Group ``rows`` by composite key and aggregate in one pass.

    Returns ``(keys, counts, distincts)``: the group key tuples in
    first-seen order, the per-group ``COUNT(*)``, and — per entry of
    ``distinct_specs`` (each a list of code columns) — the per-group
    ``COUNT(DISTINCT …)`` where rows with a NULL in any counted column
    are ignored (SQL semantics).
    """
    keys: list[tuple[int, ...]] = []
    counts: list[int] = []
    index: dict[tuple[int, ...], int] = {}
    seen: list[list[set[tuple[int, ...]]]] = [[] for _ in distinct_specs]
    for row in rows:
        key = tuple(codes[row] for codes in key_columns)
        gid = index.get(key)
        if gid is None:
            gid = len(keys)
            index[key] = gid
            keys.append(key)
            counts.append(0)
            for spec_seen in seen:
                spec_seen.append(set())
        counts[gid] += 1
        for spec, spec_seen in zip(distinct_specs, seen):
            combo = tuple(codes[row] for codes in spec)
            if any(code < 0 for code in combo):  # SQL: NULLs are not counted
                continue
            spec_seen[gid].add(combo)
    distincts = [[len(group_seen) for group_seen in spec_seen] for spec_seen in seen]
    return keys, counts, distincts


# ----------------------------------------------------------------------
# Hash join (code-space natural join kernel)
# ----------------------------------------------------------------------
def hash_join_index(
    left_key_columns: Sequence[Sequence[int]],
    right_key_columns: Sequence[Sequence[int]],
) -> tuple[list[int], list[int]]:
    """Matching ``(left_rows, right_rows)`` index pairs, left-major.

    Both key sides must live in a *shared* code space (the caller
    remaps one dictionary into the other).  The right side is hashed,
    the left side probes in row order, and matches are emitted in right
    row order within each left row — the classic hash-join output
    order, identical to the reference row-dict join.
    """
    single = len(right_key_columns) == 1
    build: dict = {}
    get = build.get
    codes0 = right_key_columns[0]
    for row in range(len(codes0)):
        key = codes0[row] if single else tuple(c[row] for c in right_key_columns)
        bucket = get(key)
        if bucket is None:
            build[key] = [row]
        else:
            bucket.append(row)
    left_rows: list[int] = []
    right_rows: list[int] = []
    left0 = left_key_columns[0]
    for row in range(len(left0)):
        key = left0[row] if single else tuple(c[row] for c in left_key_columns)
        matches = build.get(key)
        if matches is None:
            continue
        left_rows.extend([row] * len(matches))
        right_rows.extend(matches)
    return left_rows, right_rows


def left_join_index(
    left_key_columns: Sequence[Sequence[int]],
    right_key_columns: Sequence[Sequence[int]],
) -> tuple[list[int], list[int]]:
    """Left-outer variant of :func:`hash_join_index`.

    Every left row appears at least once; a left row with no match
    emits one pair whose right row is ``-1`` (the padding sentinel
    :func:`gather_padded` turns into NULL codes).  Output order matches
    the inner join for matched rows.
    """
    single = len(right_key_columns) == 1
    build: dict = {}
    get = build.get
    codes0 = right_key_columns[0]
    for row in range(len(codes0)):
        key = codes0[row] if single else tuple(c[row] for c in right_key_columns)
        bucket = get(key)
        if bucket is None:
            build[key] = [row]
        else:
            bucket.append(row)
    left_rows: list[int] = []
    right_rows: list[int] = []
    left0 = left_key_columns[0]
    for row in range(len(left0)):
        key = left0[row] if single else tuple(c[row] for c in left_key_columns)
        matches = build.get(key)
        if matches is None:
            left_rows.append(row)
            right_rows.append(-1)
            continue
        left_rows.extend([row] * len(matches))
        right_rows.extend(matches)
    return left_rows, right_rows


def gather_padded(
    codes: Sequence[int], rows: Sequence[int], fill: int = -1
) -> list[int]:
    """Codes at ``rows``; negative row indices yield ``fill``.

    The left-join gather: padded right rows (``-1``) become NULL codes
    without the wrap-around a plain ``codes[-1]`` would silently do.
    """
    return [fill if row < 0 else codes[row] for row in rows]


# ----------------------------------------------------------------------
# Sorting (the SQL executor's ORDER BY kernel)
# ----------------------------------------------------------------------
def sort_index(rank_columns: Sequence[Sequence[int]]) -> list[int]:
    """Stable ascending lexicographic argsort of parallel rank columns.

    The executor pre-computes integer ranks per key (NULL smallest,
    descending keys negated), so the kernel never touches values.
    """
    if not rank_columns:
        return []
    n = len(rank_columns[0])
    if len(rank_columns) == 1:
        ranks = rank_columns[0]
        return sorted(range(n), key=lambda row: ranks[row])
    return sorted(
        range(n), key=lambda row: tuple(col[row] for col in rank_columns)
    )


# ----------------------------------------------------------------------
# Evidence masks (the DC engine's pair kernels)
# ----------------------------------------------------------------------
# Pair evaluation is a three-way classification per attribute — equal,
# left-smaller, left-larger — and each outcome contributes a fixed
# *lane* of predicate bits to the pair's evidence mask.  NULL and NaN
# are order-incomparable: any order comparison involving them is false,
# so such pairs fall into the ``gt`` lane exactly as a direct ``<``
# evaluates them.  Masks are plain Python ints here (the native bignum
# is this backend's multi-word representation); the numpy backend
# splits the same masks into 62-bit int64 words.

#: Opcode order mirrors ``repro.dc.model.Operator`` without importing
#: it (kernels stay dc-free): EQ, NE, LT, LE, GT, GE.
EVIDENCE_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Satisfaction of each opcode per forward three-way state
#: (0 = equal, 1 = left smaller, 2 = left larger).
_OP_SAT = (
    (True, False, False),  # =
    (False, True, True),  # !=
    (False, True, False),  # <
    (True, True, False),  # <=
    (False, False, True),  # >
    (True, False, True),  # >=
)

#: State swap for the backward direction of a pair.
_SWAP_STATE = (0, 2, 1)


def evidence_specs(
    attr_tables: Sequence[tuple],
    rows: Sequence[int],
    mults: Sequence[int],
    num_predicates: int,
) -> dict:
    """Precompute per-attribute pair-evaluation state for the block
    kernels.

    ``attr_tables`` holds, per attribute, ``(codes, values, eq_lane,
    lt_lane, gt_lane, ne_lane, has_order)`` over the *full* relation;
    ``rows`` selects the representative rows, ``mults`` their duplicate
    multiplicities.  The returned spec is backend-opaque.
    """
    attrs = []
    for codes, values, eq_lane, lt_lane, gt_lane, ne_lane, has_order in attr_tables:
        rep_codes = [codes[row] for row in rows]
        if has_order:
            rep_values = [values[row] for row in rows]
            comparable = [
                value is not None and value == value for value in rep_values
            ]
            attrs.append(
                (rep_codes, rep_values, comparable, eq_lane, lt_lane, gt_lane)
            )
        else:
            attrs.append((rep_codes, None, None, eq_lane, ne_lane, ne_lane))
    return {
        "attrs": attrs,
        "mults": list(mults),
        "m": len(rows),
        "num_predicates": num_predicates,
    }


def _pair_masks(attrs: list, i: int, j: int) -> tuple[int, int]:
    """Forward/backward evidence masks of the pair ``(i, j)``."""
    forward = 0
    backward = 0
    for rep_codes, rep_values, comparable, eq_lane, lt_lane, gt_lane in attrs:
        if rep_codes[i] == rep_codes[j]:
            forward |= eq_lane
            backward |= eq_lane
        elif rep_values is None:
            forward |= lt_lane  # the shared ne lane (see evidence_specs)
            backward |= lt_lane
        elif comparable[i] and comparable[j] and rep_values[i] < rep_values[j]:
            forward |= lt_lane
            backward |= gt_lane
        else:
            forward |= gt_lane
            backward |= lt_lane
    return forward, backward


def evidence_sweep(specs: dict, tile: int, counts: dict[int, int]) -> None:
    """Fold the evidence of every unordered pair (both directions) into
    ``counts``, block by block.

    Blocks are cosmetic for this backend (loops touch each pair once
    either way) but keep the traversal structurally identical to the
    numpy tiles, so both backends see the same pair order.
    """
    evidence_sweep_blocks(specs, evidence_blocks(specs["m"], tile), counts)


def evidence_blocks(m: int, tile: int):
    """The sweep's ``(ilo, ihi, jlo, jhi)`` blocks, in traversal order.

    The parallel layer lists these, splits them into contiguous
    morsels, and merges per-morsel counts in morsel order — the same
    first-seen mask order the serial sweep produces.
    """
    for ilo in range(0, m, tile):
        ihi = min(ilo + tile, m)
        for jlo in range(ilo, m, tile):
            yield ilo, ihi, jlo, min(jlo + tile, m)


def evidence_sweep_blocks(specs: dict, blocks, counts: dict[int, int]) -> None:
    """Fold an explicit run of blocks (a sweep morsel)."""
    attrs = specs["attrs"]
    mults = specs["mults"]
    for ilo, ihi, jlo, jhi in blocks:
        for i in range(ilo, ihi):
            start = i + 1 if jlo <= i else jlo
            for j in range(start, jhi):
                forward, backward = _pair_masks(attrs, i, j)
                weight = mults[i] * mults[j]
                counts[forward] = counts.get(forward, 0) + weight
                counts[backward] = counts.get(backward, 0) + weight


def evidence_export(specs: dict) -> tuple[tuple, dict]:
    """No arrays to ship: thread-pool workers share the spec object."""
    return (), specs


def evidence_restore(arrays, meta: dict) -> dict:
    """Inverse of :func:`evidence_export` (identity for this backend)."""
    return meta


def evidence_pairs_into(
    specs: dict,
    lefts: Sequence[int],
    rights: Sequence[int],
    counts: dict[int, int],
) -> None:
    """Fold the evidence of explicit position pairs into ``counts``
    (the sampled and refinement paths)."""
    attrs = specs["attrs"]
    mults = specs["mults"]
    for i, j in zip(lefts, rights):
        forward, backward = _pair_masks(attrs, i, j)
        weight = mults[i] * mults[j]
        counts[forward] = counts.get(forward, 0) + weight
        counts[backward] = counts.get(backward, 0) + weight


def dc_scan(
    specs: dict,
    pred_ops: Sequence[tuple[int, int]],
    tile: int,
    max_hits: int | None,
) -> tuple[int, list[tuple[int, int]]]:
    """Violations of one DC over every pair, with early exit.

    ``pred_ops`` lists ``(attribute position, opcode)`` conjuncts (see
    ``EVIDENCE_OPS``).  Returns ``(violating ordered weight seen,
    ordered hit pairs)``; enumeration stops once ``max_hits`` hits are
    collected, so the weight is a lower bound when truncated.
    """
    attrs = specs["attrs"]
    mults = specs["mults"]
    m = specs["m"]
    used = sorted(set(pos for pos, _op in pred_ops))
    weight_seen = 0
    hits: list[tuple[int, int]] = []
    for ilo in range(0, m, tile):
        ihi = min(ilo + tile, m)
        for jlo in range(ilo, m, tile):
            jhi = min(jlo + tile, m)
            for i in range(ilo, ihi):
                start = i + 1 if jlo <= i else jlo
                for j in range(start, jhi):
                    states: dict[int, int] = {}
                    for pos in used:
                        codes, values, comparable = attrs[pos][:3]
                        if codes[i] == codes[j]:
                            states[pos] = 0
                        elif (
                            values is not None
                            and comparable[i]
                            and comparable[j]
                            and values[i] < values[j]
                        ):
                            states[pos] = 1
                        else:
                            states[pos] = 2
                    weight = mults[i] * mults[j]
                    if all(_OP_SAT[op][states[pos]] for pos, op in pred_ops):
                        weight_seen += weight
                        hits.append((i, j))
                    if all(
                        _OP_SAT[op][_SWAP_STATE[states[pos]]]
                        for pos, op in pred_ops
                    ):
                        weight_seen += weight
                        hits.append((j, i))
                    if max_hits is not None and len(hits) >= max_hits:
                        return weight_seen, hits[:max_hits]
    return weight_seen, hits


# ----------------------------------------------------------------------
# Violating-pair counting
# ----------------------------------------------------------------------
def count_violating_pairs(x_partition, y_columns: Sequence[Sequence[int]]) -> int:
    """Exact number of unordered Definition-2 violating pairs.

    Within an X-class of size ``s`` whose Y-groups have sizes ``g_i``,
    the violating pairs number ``C(s,2) − Σ C(g_i,2)`` — every pair
    agreeing on X minus those also agreeing on Y.  Singleton X-classes
    (implicit in the stripped form) contribute nothing.
    """
    total = 0
    single = len(y_columns) == 1
    y0 = y_columns[0] if y_columns else ()
    for cls_rows in x_partition:
        size = len(cls_rows)
        group_sizes: dict[Any, int] = {}
        if single:
            for row in cls_rows:
                key = y0[row]
                group_sizes[key] = group_sizes.get(key, 0) + 1
        else:
            for row in cls_rows:
                key = tuple(codes[row] for codes in y_columns)
                group_sizes[key] = group_sizes.get(key, 0) + 1
        if len(group_sizes) < 2:
            continue
        total += size * (size - 1) // 2
        total -= sum(g * (g - 1) // 2 for g in group_sizes.values())
    return total
