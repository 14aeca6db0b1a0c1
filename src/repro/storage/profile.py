"""Chunk-at-a-time profiling over :class:`~repro.storage.reader.StoredRelation`.

Every routine here walks the store one chunk at a time and keeps a
working set bounded by ``O(chunk + distinct-per-chunk + sample)`` — the
relation itself is never materialized.  Every count is exact, from an
external-sort group merge: each chunk contributes a *sorted* run of
``(group key, count)`` records spilled to disk (keys are fixed-width
big-endian ``global code + 1`` words, so byte order ≡ tuple order and
NULL folds in as 0), and a ``heapq.merge`` pass folds equal keys across
runs while streaming the aggregates (distinct, Σ C(g,2) agreeing pairs,
entropy, size histogram).  This mirrors the writer's dictionary merge:
only one chunk's groups are ever resident.

On top sit the hot consumers the rest of the engine threads through:
FD assessment (:func:`assess_fd`), TANE level-1 discovery
(:func:`tane_level1`), and the tiled-evidence sample pass
(:func:`evidence_sample`).
"""

from __future__ import annotations

import heapq
import math
import os
import random
import struct
import tempfile
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.fd.fd import FDSyntaxError
from repro.relational import kernels
from repro.relational.relation import Relation

from .reader import StoredRelation

__all__ = [
    "GroupStats",
    "StoreFDAssessment",
    "assess_fd",
    "distinct_count",
    "evidence_sample",
    "group_size_histogram",
    "group_stats",
    "sample_rows",
    "tane_level1",
    "violating_pairs_count",
]

_COUNT = struct.Struct("<Q")


# ======================================================================
# Result types
# ======================================================================
@dataclass(frozen=True)
class GroupStats:
    """Aggregates of the group-by clustering of one attribute set.

    ``agreeing_pairs`` is ``Σ C(g,2)`` — the quantity the delta engine
    tracks and violating-pair counts subtract; ``entropy`` is in nats
    (the :mod:`repro.eb` convention, NULL as a regular value).
    """

    distinct: int
    agreeing_pairs: int
    entropy: float
    num_rows: int


@dataclass(frozen=True)
class StoreFDAssessment:
    """Confidence/goodness of one FD measured on a store.

    The same measures as :class:`repro.fd.measures.FDAssessment`:
    confidence ``|π_X|/|π_XY|`` and goodness ``|π_X| − |π_Y|``.
    """

    x_attrs: tuple[str, ...]
    y_attrs: tuple[str, ...]
    distinct_x: int
    distinct_xy: int
    distinct_y: int

    @property
    def confidence(self) -> float:
        if self.distinct_xy == 0:
            return 1.0
        return self.distinct_x / self.distinct_xy

    @property
    def goodness(self) -> int:
        return self.distinct_x - self.distinct_y

    @property
    def is_exact_fd(self) -> bool:
        """Whether the FD holds on every row."""
        return self.distinct_x == self.distinct_xy


# ======================================================================
# External-sort group merge
# ======================================================================
def _chunk_group_runs(columns) -> tuple[list[bytes], list[int]]:
    """One chunk's groups as sorted byte keys + counts.

    Keys are the per-attribute ``global code + 1`` packed as 8-byte
    big-endian words — non-negative, so lexicographic byte order equals
    tuple order and ``heapq.merge`` across chunks is a straight bytes
    comparison.
    """
    width = len(columns)
    if kernels.active_backend_name() == "numpy":
        import numpy as np

        rows = np.stack(
            [np.asarray(col, dtype=np.int64) + 1 for col in columns], axis=1
        )
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        blob = uniq.astype(">i8").tobytes()
        size = 8 * width
        keys = [blob[i * size : (i + 1) * size] for i in range(len(uniq))]
        return keys, counts.tolist()
    counter: dict[tuple[int, ...], int] = {}
    for row in zip(*columns):
        key = tuple(code + 1 for code in row)
        counter[key] = counter.get(key, 0) + 1
    packer = struct.Struct(f">{width}q")
    items = sorted(counter.items())
    return [packer.pack(*key) for key, _ in items], [c for _, c in items]


def _read_run(
    path: str, offset: int, count: int, width: int
) -> Iterator[tuple[bytes, int]]:
    record = 8 * width + _COUNT.size
    with open(path, "rb") as handle:
        handle.seek(offset)
        for _ in range(count):
            blob = handle.read(record)
            yield blob[: 8 * width], _COUNT.unpack_from(blob, 8 * width)[0]


def _merged_groups(
    store: StoredRelation,
    attrs: Sequence[str],
    spill_dir: str | Path | None = None,
) -> Iterator[tuple[bytes, int]]:
    """Stream ``(key, total count)`` per distinct group, key-sorted.

    One sorted spill run per chunk, ``heapq.merge``d with equal keys
    folded — the multi-attribute analogue of the writer's dictionary
    merge.  The spill file lives next to the store (or ``spill_dir``)
    and is unlinked when the stream is exhausted or closed.  The empty
    attribute set groups every row together: one group, or none on an
    empty store.
    """
    names = store.schema.validate_names(attrs)
    if not names:
        if store.num_rows:
            yield b"", store.num_rows
        return
    width = len(names)
    directory = Path(spill_dir) if spill_dir is not None else store.directory
    fd, spill_path = tempfile.mkstemp(suffix=".groupspill", dir=directory)
    runs: list[tuple[int, int]] = []
    try:
        with os.fdopen(fd, "wb") as spill:
            offset = 0
            for _, columns in store.iter_global_codes(names):
                keys, counts = _chunk_group_runs(columns)
                for key, count in zip(keys, counts):
                    spill.write(key)
                    spill.write(_COUNT.pack(count))
                runs.append((offset, len(keys)))
                offset += len(keys) * (8 * width + _COUNT.size)
        streams = [_read_run(spill_path, off, cnt, width) for off, cnt in runs]
        previous: bytes | None = None
        total = 0
        for key, count in heapq.merge(*streams):
            if key != previous:
                if previous is not None:
                    yield previous, total
                previous = key
                total = 0
            total += count
        if previous is not None:
            yield previous, total
    finally:
        os.unlink(spill_path)


def group_size_histogram(
    store: StoredRelation,
    attrs: Sequence[str],
    spill_dir: str | Path | None = None,
) -> dict[int, int]:
    """``group size → number of groups`` for one attribute set.

    The out-of-core stand-in for a partition build: the histogram is
    exactly the information the delta engine's size histogram and the
    entropy kernels consume, at ``O(distinct-per-chunk)`` memory.
    """
    histogram: dict[int, int] = {}
    for _, size in _merged_groups(store, attrs, spill_dir):
        histogram[size] = histogram.get(size, 0) + 1
    return histogram


# ======================================================================
# Row samples
# ======================================================================
def _sample_indices(num_rows: int, sample: int, seed: int) -> list[int]:
    """A sorted uniform without-replacement index sample (seeded)."""
    size = min(sample, num_rows)
    if size <= 0:
        return []
    return sorted(random.Random(seed).sample(range(num_rows), size))


def sample_rows(
    store: StoredRelation,
    sample: int,
    seed: int = 0,
    attrs: Sequence[str] | None = None,
) -> list[tuple[Any, ...]]:
    """Decoded value rows of a seeded uniform row sample.

    Only chunks containing sampled indices are read; peak memory is one
    chunk's codes plus the sample itself.
    """
    names = (
        store.attribute_names
        if attrs is None
        else store.schema.validate_names(attrs)
    )
    indices = _sample_indices(store.num_rows, sample, seed)
    rows: list[tuple[Any, ...]] = []
    cursor = 0
    for chunk in range(store.num_chunks):
        start = store.manifest.chunk_start(chunk)
        end = start + store.manifest.chunk_sizes[chunk]
        if cursor >= len(indices) or indices[cursor] >= end:
            continue
        codes = [store.chunk_local_codes(name, chunk) for name in names]
        dicts = [store.chunk_dictionary(name, chunk) for name in names]
        while cursor < len(indices) and indices[cursor] < end:
            local = indices[cursor] - start
            rows.append(
                tuple(
                    None if col[local] == -1 else values[col[local]]
                    for col, values in zip(codes, dicts)
                )
            )
            cursor += 1
    return rows


# ======================================================================
# Public profiling API
# ======================================================================
def _antecedent(store: StoredRelation, x_attrs: Sequence[str]) -> tuple[str, ...]:
    """Validated ``X`` of an FD; empty is the in-memory FD's error."""
    x = store.schema.validate_names(x_attrs)
    if not x:
        raise FDSyntaxError("the antecedent of an FD cannot be empty")
    return x


def distinct_count(
    store: StoredRelation,
    attrs: Sequence[str],
    spill_dir: str | Path | None = None,
) -> int:
    """``|π_attrs|`` over the store (NULL as a regular value).

    Single attributes read straight off the manifest (the writer's
    dictionary merge already counted them); other sets run the spill
    merge.
    """
    names = store.schema.validate_names(attrs)
    if len(names) == 1:
        meta = store.manifest.columns[names[0]]
        return meta.cardinality + (1 if meta.null_count else 0)
    return sum(1 for _ in _merged_groups(store, names, spill_dir))


def group_stats(
    store: StoredRelation,
    attrs: Sequence[str],
    spill_dir: str | Path | None = None,
) -> GroupStats:
    """Distinct count, agreeing pairs, and entropy of one clustering,
    streamed off a single spill merge."""
    n = store.num_rows
    distinct = 0
    agreeing = 0
    entropy = 0.0
    for _, size in _merged_groups(store, attrs, spill_dir):
        distinct += 1
        agreeing += size * (size - 1) // 2
        p = size / n
        entropy -= p * math.log(p)
    return GroupStats(
        distinct=distinct,
        agreeing_pairs=agreeing,
        entropy=entropy,
        num_rows=n,
    )


def assess_fd(
    store: StoredRelation,
    x_attrs: Sequence[str],
    y_attrs: Sequence[str],
    spill_dir: str | Path | None = None,
) -> StoreFDAssessment:
    """Confidence and goodness of ``X → Y`` measured chunk-at-a-time.

    NULL is treated as a regular value (GROUP BY semantics) — the
    in-memory FD layer's NULL prohibition is a schema-level concern the
    caller applies before profiling.  An empty ``X`` raises
    :class:`~repro.fd.fd.FDSyntaxError`, as in memory.
    """
    x = _antecedent(store, x_attrs)
    y = store.schema.validate_names(y_attrs)
    xy = x + tuple(a for a in y if a not in x)
    return StoreFDAssessment(
        x_attrs=x,
        y_attrs=y,
        distinct_x=distinct_count(store, x, spill_dir),
        distinct_xy=distinct_count(store, xy, spill_dir),
        distinct_y=distinct_count(store, y, spill_dir),
    )


def violating_pairs_count(
    store: StoredRelation,
    x_attrs: Sequence[str],
    y_attrs: Sequence[str],
    spill_dir: str | Path | None = None,
) -> int:
    """Row pairs agreeing on X but differing on Y (Definition 2).

    ``Σ C(x_g,2) − Σ C(xy_g,2)`` off two spill merges — the same
    identity the in-memory kernel uses.  An empty ``X`` raises
    :class:`~repro.fd.fd.FDSyntaxError`, as in memory.
    """
    x = _antecedent(store, x_attrs)
    y = tuple(a for a in store.schema.validate_names(y_attrs) if a not in x)
    x_stats = group_stats(store, x, spill_dir)
    xy_stats = group_stats(store, x + y, spill_dir)
    return x_stats.agreeing_pairs - xy_stats.agreeing_pairs


def tane_level1(
    store: StoredRelation,
    attrs: Sequence[str] | None = None,
    spill_dir: str | Path | None = None,
) -> list[tuple[str, str]]:
    """Level-1 TANE: all exact unary FDs ``A → B`` over the store.

    ``A → B`` holds iff ``|π_A| = |π_AB|`` — one pair-distinct count
    per unordered attribute pair, each a bounded-memory chunk sweep.
    Returns ``(lhs, rhs)`` pairs sorted by schema position.
    """
    names = (
        list(store.attribute_names)
        if attrs is None
        else list(store.schema.validate_names(attrs))
    )
    singles = {name: distinct_count(store, [name]) for name in names}
    found: list[tuple[str, str]] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            pair = distinct_count(store, [a, b], spill_dir)
            for lhs, rhs in ((a, b), (b, a)):
                if pair == singles[lhs]:
                    found.append((lhs, rhs))
    order = {name: position for position, name in enumerate(names)}
    found.sort(key=lambda fd: (order[fd[0]], order[fd[1]]))
    return found


def evidence_sample(
    store: StoredRelation,
    sample: int = 2_000,
    seed: int = 0,
    attributes: Sequence[str] | None = None,
    max_pairs: int | None = None,
    tile: int = 512,
):
    """A tiled-evidence pass over a seeded row sample of the store.

    Gathers ``sample`` rows (uniform, seeded), materializes them as an
    in-memory relation, and runs the PR-7 tiled evidence engine over
    its predicate space — the out-of-core entry point for DC discovery
    on stores.  Peak memory is ``O(sample + tile²)`` regardless of the
    store's size (``tile`` defaults to 512 here precisely so the sweep
    never falls back to the engine's one-big-tile path).  The returned
    :class:`~repro.dc.evidence.EvidenceSet` is flagged ``sampled`` by
    the engine whenever the pair budget truncates; the row sampling
    itself is the caller's stated choice.
    """
    from repro.dc.engine import build_evidence_tiled
    from repro.dc.predicates import build_predicate_space

    rows = sample_rows(store, sample, seed, attributes)
    names = (
        store.attribute_names
        if attributes is None
        else store.schema.validate_names(attributes)
    )
    schema = (
        store.schema
        if attributes is None
        else store.schema.project(names)
    )
    relation = Relation.from_rows(schema, rows, validate=False)
    space = build_predicate_space(relation, include_nullable=True)
    return build_evidence_tiled(relation, space, max_pairs=max_pairs, tile=tile)
