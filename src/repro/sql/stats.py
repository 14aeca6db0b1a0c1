"""Statistics feeding the query optimizer's cost model.

The paper's profiling metadata — per-attribute distinct counts and null
counts — is exactly what a cost-based optimizer consumes, so this module
reuses it directly: :func:`relation_stats` reads
:class:`~repro.relational.statistics.RelationStatistics` (dictionary
cardinalities, free on encoded columns); :func:`store_stats` reads an
attached store's manifest (nothing decoded).  :class:`StatisticsProvider`
picks one per table name.

Every distinct count is exact, so the same figure drives join-order
cost ranking and the uniqueness guards that must be *sound*, like
"this join key is a key".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.relational.errors import UnknownRelationError
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.catalog import Catalog
    from repro.storage.reader import StoredRelation

__all__ = [
    "ColumnStats",
    "TableStats",
    "StatisticsProvider",
    "relation_stats",
    "store_stats",
]


@dataclass(frozen=True)
class ColumnStats:
    """Optimizer-visible facts about one column."""

    distinct: int
    """Distinct non-null values (the dictionary cardinality)."""

    null_count: int
    """NULLs in the column."""

    attr_type: AttributeType
    """Declared type, for the pushdown safety analysis."""


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column stats for one relation."""

    num_rows: int
    columns: Mapping[str, ColumnStats]
    schema: RelationSchema

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def is_unique_key(self, name: str) -> bool:
        """``True`` only when ``name`` is *provably* duplicate- and
        NULL-free: exact distinct count equals the row count."""
        stats = self.columns.get(name)
        if stats is None:
            return False
        return stats.null_count == 0 and stats.distinct == self.num_rows


def relation_stats(relation: Relation) -> TableStats:
    """Build :class:`TableStats` from an in-memory relation.

    Distinct and null counts come from :class:`RelationStatistics`
    (dictionary metadata, no scan).
    """
    rel_stats = relation.stats
    columns: dict[str, ColumnStats] = {}
    for attr in relation.schema.attributes:
        columns[attr.name] = ColumnStats(
            distinct=rel_stats.cardinality(attr.name),
            null_count=rel_stats.null_count(attr.name),
            attr_type=attr.type,
        )
    return TableStats(
        num_rows=relation.num_rows, columns=columns, schema=relation.schema
    )


def store_stats(store: "StoredRelation") -> TableStats:
    """Build :class:`TableStats` from a chunked store's manifest.

    Global cardinality and null counts were persisted by
    ``StoreWriter.finalize``; nothing is decoded here.
    """
    columns: dict[str, ColumnStats] = {}
    for attr in store.schema.attributes:
        columns[attr.name] = ColumnStats(
            distinct=store.cardinality(attr.name),
            null_count=store.null_count(attr.name),
            attr_type=attr.type,
        )
    return TableStats(
        num_rows=store.num_rows, columns=columns, schema=store.schema
    )


@dataclass
class StatisticsProvider:
    """Lazily materializes :class:`TableStats` per table name.

    Backed by a catalog (``None``: every table is unknown); relations
    get :func:`relation_stats`, attached stores :func:`store_stats`.
    Results are memoized for the lifetime of one optimizer invocation
    so repeated lookups during rule application stay O(1).
    """

    catalog: "Catalog | None" = None
    _cache: dict[str, TableStats | None] = field(default_factory=dict)

    def table_stats(self, table: str) -> TableStats | None:
        if table not in self._cache:
            self._cache[table] = self._build(table)
        return self._cache[table]

    def _build(self, table: str) -> TableStats | None:
        if self.catalog is None:
            return None
        try:
            source = self.catalog.table(table)
        except UnknownRelationError:
            return None
        if isinstance(source, Relation):
            return relation_stats(source)
        return store_stats(source)
