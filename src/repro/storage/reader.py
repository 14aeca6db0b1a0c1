"""Reading side of the chunked columnar store.

:class:`StoredRelation` opens a store directory and exposes the
relation chunk by chunk:

* :meth:`chunk_relation` materializes one chunk as a plain in-memory
  :class:`~repro.relational.relation.Relation` (local codes + local
  dictionary — no global state is touched), which is how every
  chunk-at-a-time consumer (SQL scans, evidence sampling, service
  ingest, chunk adoption) gets its working set;
* :meth:`iter_global_codes` lifts chunk code pages into the *global*
  code space through the per-chunk remap tables — the representation
  the streaming statistics kernels (:mod:`repro.storage.profile`)
  consume.  On the numpy backend the code pages are ``np.memmap``
  views (the OS pages them in and out); the stdlib-pure backend reads
  through ``mmap`` into per-chunk ``array('q')`` working sets.
* :meth:`adopt_into` folds chunks into a ``Relation.extend`` chain, so
  the delta engine and the temporal ``TupleLog`` ride the same files.

Everything here is bounded by one chunk (plus one remap table per open
column) — never by the relation.
"""

from __future__ import annotations

import mmap
import struct
from array import array
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.relational import kernels
from repro.relational.encoding import EncodedColumn
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

from .format import (
    CODES_HEADER,
    CODES_MAGIC,
    ChunkZone,
    StoreFormatError,
    StoreManifest,
    codes_path,
    dict_path,
    dictidx_path,
    loads_value,
    localdict_path,
    remap_path,
    require_little_endian,
)

__all__ = ["StoredRelation", "open_store"]


def open_store(directory: str | Path) -> "StoredRelation":
    """Open a store directory written by :class:`~repro.storage.writer.StoreWriter`."""
    directory = Path(directory)
    return StoredRelation(directory, StoreManifest.load(directory))


class _ColumnFiles:
    """Lazily opened readers for one column's files."""

    __slots__ = ("directory", "position", "_codes_mmap", "_codes_np", "_remaps")

    def __init__(self, directory: Path, position: int) -> None:
        self.directory = directory
        self.position = position
        self._codes_mmap: mmap.mmap | None = None
        self._codes_np: Any = None
        self._remaps: dict[int, Any] = {}

    def codes_buffer(self) -> mmap.mmap:
        if self._codes_mmap is None:
            path = codes_path(self.directory, self.position)
            with open(path, "rb") as handle:
                header = handle.read(CODES_HEADER.size)
                magic = CODES_HEADER.unpack(header)[0]
                if magic != CODES_MAGIC:
                    raise StoreFormatError(f"bad magic in {path}")
                self._codes_mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        return self._codes_mmap

    def codes_memmap(self):
        if self._codes_np is None:
            import numpy as np

            self._codes_np = np.memmap(
                codes_path(self.directory, self.position),
                dtype="<i8",
                mode="r",
                offset=CODES_HEADER.size,
            )
        return self._codes_np

    def close(self) -> None:
        if self._codes_mmap is not None:
            self._codes_mmap.close()
            self._codes_mmap = None
        self._codes_np = None
        self._remaps.clear()


class StoredRelation:
    """A relation backed by chunked on-disk column files."""

    def __init__(self, directory: Path, manifest: StoreManifest) -> None:
        require_little_endian()
        self.directory = Path(directory)
        self.manifest = manifest
        self._files = [
            _ColumnFiles(self.directory, position)
            for position in range(manifest.schema.arity)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        return self.manifest.schema

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def num_rows(self) -> int:
        return self.manifest.num_rows

    @property
    def num_chunks(self) -> int:
        return self.manifest.num_chunks

    @property
    def chunk_sizes(self) -> list[int]:
        return list(self.manifest.chunk_sizes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def cardinality(self, attr: str) -> int:
        """Global distinct non-NULL values of one column (from the manifest)."""
        return self.manifest.columns[attr].cardinality

    def null_count(self, attr: str) -> int:
        return self.manifest.columns[attr].null_count

    def chunk_zone(self, attr: str, chunk: int) -> ChunkZone | None:
        """The zone map for one chunk of one column, or ``None`` when
        the store predates format v2 (scans then never skip)."""
        self._chunk_span(chunk)
        zones = self.manifest.columns[attr].chunk_zones
        return None if zones is None else zones[chunk]

    def materialized_bytes(self) -> int:
        """See :meth:`repro.storage.format.StoreManifest.materialized_bytes`."""
        return self.manifest.materialized_bytes()

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"StoredRelation({self.name!r}: {self.schema.arity} attributes, "
            f"{self.num_rows} rows, {self.num_chunks} chunks @ {self.directory})"
        )

    def close(self) -> None:
        """Release mmaps and cached remap tables."""
        for files in self._files:
            files.close()

    def __enter__(self) -> "StoredRelation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Chunk access (local code space)
    # ------------------------------------------------------------------
    def _position(self, attr: str) -> int:
        return self.schema.position(attr)

    def _chunk_span(self, chunk: int) -> tuple[int, int]:
        if not 0 <= chunk < self.num_chunks:
            raise IndexError(
                f"chunk {chunk} out of range 0..{self.num_chunks - 1}"
            )
        start = self.manifest.chunk_start(chunk)
        return start, start + self.manifest.chunk_sizes[chunk]

    def chunk_local_codes(self, attr: str, chunk: int) -> array:
        """One chunk's local codes as an ``array('q')`` working set."""
        start, end = self._chunk_span(chunk)
        buffer = self._files[self._position(attr)].codes_buffer()
        base = CODES_HEADER.size
        codes = array("q")
        codes.frombytes(buffer[base + 8 * start : base + 8 * end])
        return codes

    def chunk_dictionary(self, attr: str, chunk: int) -> list[Any]:
        """One chunk's local dictionary (decoded values, code order)."""
        self._chunk_span(chunk)
        position = self._position(attr)
        offset, length = self.manifest.columns[attr].chunk_dict_spans[chunk]
        if length == 0:
            return []
        with open(localdict_path(self.directory, position), "rb") as handle:
            handle.seek(offset)
            blob = handle.read(length)
        return [loads_value(line) for line in blob.split(b"\n") if line]

    def chunk_relation(
        self, chunk: int, attrs: Sequence[str] | None = None
    ) -> Relation:
        """Materialize one chunk as an in-memory :class:`Relation`.

        The chunk is fully self-contained (local codes + local
        dictionary), so this touches exactly one code page and one
        dictionary span per column.
        """
        names = (
            self.schema.attribute_names
            if attrs is None
            else self.schema.validate_names(attrs)
        )
        start, end = self._chunk_span(chunk)
        schema = (
            self.schema if attrs is None else self.schema.project(names)
        )
        use_numpy = kernels.active_backend_name() == "numpy"
        columns: dict[str, EncodedColumn] = {}
        for name in names:
            codes = self.chunk_local_codes(name, chunk)
            column = EncodedColumn(list(codes), self.chunk_dictionary(name, chunk))
            if use_numpy:
                import numpy as np

                arr = np.asarray(codes, dtype=np.int64)
                arr.flags.writeable = False
                column._codes_array = arr
            columns[name] = column
        return Relation(schema, columns, end - start)

    def iter_chunk_relations(
        self, attrs: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        """Yield every chunk as an in-memory relation, in row order."""
        for chunk in range(self.num_chunks):
            yield self.chunk_relation(chunk, attrs)

    # ------------------------------------------------------------------
    # Global code space
    # ------------------------------------------------------------------
    def _remap(self, attr: str, chunk: int):
        """The chunk's local→global remap (trailing ``-1`` sentinel)."""
        position = self._position(attr)
        files = self._files[position]
        backend = kernels.active_backend_name()
        cached = files._remaps.get((chunk, backend))
        if cached is not None:
            return cached
        meta = self.manifest.columns[attr]
        offset = 8 * (sum(meta.chunk_cardinalities[:chunk]) + chunk)
        entries = meta.chunk_cardinalities[chunk] + 1
        with open(remap_path(self.directory, position), "rb") as handle:
            handle.seek(offset)
            blob = handle.read(8 * entries)
        if backend == "numpy":
            import numpy as np

            remap = np.frombuffer(blob, dtype="<i8")
        else:
            remap = array("q")
            remap.frombytes(blob)
        files._remaps[(chunk, backend)] = remap
        return remap

    def chunk_global_codes(self, attr: str, chunk: int):
        """One chunk's codes lifted to the global code space.

        numpy backend: an ``int64`` ndarray gathered straight off the
        column ``memmap``; python backend: a ``list[int]``.  NULL stays
        ``-1`` (the remap's trailing sentinel makes ``[-1]`` total).
        """
        start, end = self._chunk_span(chunk)
        remap = self._remap(attr, chunk)
        if kernels.active_backend_name() == "numpy":
            page = self._files[self._position(attr)].codes_memmap()[start:end]
            return remap[page]
        codes = self.chunk_local_codes(attr, chunk)
        return [remap[code] for code in codes]

    def iter_global_codes(
        self, attrs: Sequence[str]
    ) -> Iterator[tuple[int, list]]:
        """Yield ``(chunk_index, [codes per attr])`` chunk by chunk."""
        names = self.schema.validate_names(attrs)
        for chunk in range(self.num_chunks):
            yield chunk, [self.chunk_global_codes(name, chunk) for name in names]

    def global_value(self, attr: str, global_code: int) -> Any:
        """Decode one global code via the on-disk dictionary index."""
        if global_code == -1:
            return None
        meta = self.manifest.columns[attr]
        if not 0 <= global_code < meta.cardinality:
            raise IndexError(
                f"global code {global_code} out of range for {attr!r}"
            )
        position = self._position(attr)
        with open(dictidx_path(self.directory, position), "rb") as idx:
            idx.seek(8 * global_code)
            start, end = struct.unpack("<QQ", idx.read(16))
        with open(dict_path(self.directory, position), "rb") as handle:
            handle.seek(start)
            line = handle.read(end - start)
        return loads_value(line.rstrip(b"\n"))

    # ------------------------------------------------------------------
    # Materialization and adoption
    # ------------------------------------------------------------------
    def to_relation(self, attrs: Sequence[str] | None = None) -> Relation:
        """Materialize the whole store in memory (small stores only)."""
        names = (
            self.schema.attribute_names
            if attrs is None
            else self.schema.validate_names(attrs)
        )
        schema = self.schema if attrs is None else self.schema.project(names)
        if self.num_chunks == 0:
            return Relation.from_columns(schema, {name: [] for name in names})
        relation = self.chunk_relation(0, attrs)
        if self.num_chunks > 1:
            relation = self.adopt_into(relation, start_chunk=1, attrs=attrs)
        return relation

    def adopt_into(
        self,
        base: Relation,
        start_chunk: int = 0,
        end_chunk: int | None = None,
        attrs: Sequence[str] | None = None,
    ) -> Relation:
        """Fold chunks ``[start_chunk, end_chunk)`` into ``base`` via
        ``Relation.extend`` — chunk adoption.

        Each adopted chunk decodes once and rides the extend path, so
        the delta engine folds it forward in O(chunk) and any tracked
        attribute sets stay warm; the returned head is byte-identical
        to a cold build over the concatenation (the extend contract).
        Every step extends the chain head, which appends to column
        storage shared along the chain instead of copying it, so
        adopting k chunks costs time linear in the rows adopted (plus
        one O(n) copy of ``base``'s columns), not quadratic in k.
        """
        end = self.num_chunks if end_chunk is None else end_chunk
        head = base
        for chunk in range(start_chunk, end):
            chunk_relation = self.chunk_relation(chunk, attrs)
            head = head.extend(chunk_relation.rows(), validate=False)
        return head
