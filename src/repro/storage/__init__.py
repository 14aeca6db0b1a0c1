"""Out-of-core chunked columnar storage (PR 9).

The store puts the engine's dictionary-encoded columns on disk as
chunked ``int64`` code pages behind :class:`StoredRelation`, so
profiling, discovery, and monitoring run bounded-memory on relations
larger than RAM:

* :mod:`repro.storage.format` — the on-disk layout (struct-packed
  headers, raw code pages, spill-merged global dictionaries);
* :mod:`repro.storage.writer` — the streaming :class:`StoreWriter`
  with external-sort dictionary merges;
* :mod:`repro.storage.reader` — :class:`StoredRelation`: memory-mapped
  chunk access (``np.memmap`` on the fast backend, ``mmap`` +
  ``array`` stdlib-pure), global-code iteration, chunk adoption into
  ``Relation.extend`` chains;
* :mod:`repro.storage.profile` — the chunk-at-a-time consumers:
  streamed partition statistics, exact spill-merge group stats, TANE
  level-1 discovery, tiled-evidence sample passes;
* :mod:`repro.storage.sqlbridge` — SQL scans over attached stores
  (chunked predicate-pushdown materialization).
"""

from .format import ChunkZone, StoreFormatError, StoreManifest
from .reader import StoredRelation, open_store
from .writer import DEFAULT_CHUNK_ROWS, StoreWriter, write_store

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ChunkZone",
    "StoreFormatError",
    "StoreManifest",
    "StoreWriter",
    "StoredRelation",
    "open_store",
    "write_store",
]
