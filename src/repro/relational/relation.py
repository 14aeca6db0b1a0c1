"""The :class:`Relation`: an immutable, column-oriented relation instance.

A relation couples a :class:`~repro.relational.schema.RelationSchema`
with one dictionary-encoded column per attribute.  All the operations
the paper's method needs are provided directly:

* ``count_distinct(attrs)`` — the ``|π_X(r)|`` counts that define
  confidence and goodness (memoized; see
  :mod:`repro.relational.statistics`);
* ``partition(attrs)`` — the X-clustering of Definition 5;
* ``project`` / ``select`` / ``take`` — plain relational algebra used by
  generators, benches and the SQL layer.

Relations are treated as immutable: every derivation returns a new
object, so the per-relation statistics cache never goes stale.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from . import expr, kernels
from .encoding import EncodedColumn
from .errors import ArityError, SchemaError, TypeMismatchError
from .partition import Partition, StrippedPartition
from .schema import Attribute, RelationSchema
from .statistics import RelationStatistics
from .types import infer_type

__all__ = ["Relation"]


class Relation:
    """An instance ``r`` of a relation schema ``R``.

    Build one with :meth:`from_rows` or :meth:`from_columns`; direct
    construction expects already-encoded columns.
    """

    __slots__ = ("_schema", "_columns", "_num_rows", "_stats")

    def __init__(
        self,
        schema: RelationSchema,
        columns: Mapping[str, EncodedColumn],
        num_rows: int,
    ) -> None:
        if set(columns) != set(schema.attribute_names):
            missing = set(schema.attribute_names) - set(columns)
            extra = set(columns) - set(schema.attribute_names)
            raise SchemaError(
                f"columns do not match schema (missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for name, column in columns.items():
            if len(column) != num_rows:
                raise SchemaError(
                    f"column {name!r} has {len(column)} rows, expected {num_rows}"
                )
        self._schema = schema
        self._columns = dict(columns)
        self._num_rows = num_rows
        self._stats = RelationStatistics(schema, self._columns, num_rows)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema | str,
        rows: Iterable[Sequence[Any]],
        attributes: Sequence[str] | None = None,
        validate: bool = True,
    ) -> "Relation":
        """Build a relation from row tuples.

        ``schema`` may be a full :class:`RelationSchema` or just a name,
        in which case ``attributes`` must list the attribute names and
        types are inferred from the data.
        """
        materialized = [tuple(row) for row in rows]
        if isinstance(schema, str):
            if attributes is None:
                raise SchemaError(
                    "attribute names are required when schema is given by name"
                )
            column_values = _transpose(materialized, len(attributes))
            attrs = [
                Attribute(name, infer_type(values), nullable=any(v is None for v in values))
                for name, values in zip(attributes, column_values)
            ]
            schema = RelationSchema(schema, attrs)
        arity = schema.arity
        for row in materialized:
            if len(row) != arity:
                raise ArityError(arity, len(row))
        column_values = _transpose(materialized, arity)
        columns: dict[str, EncodedColumn] = {}
        for attr, values in zip(schema.attributes, column_values):
            if validate:
                values = [_validate_value(attr, v) for v in values]
            columns[attr.name] = EncodedColumn.from_values(values)
        return cls(schema, columns, len(materialized))

    @classmethod
    def from_columns(
        cls,
        name: str | RelationSchema,
        columns: Mapping[str, Sequence[Any]],
        validate: bool = True,
    ) -> "Relation":
        """Build a relation from a ``{attribute: values}`` mapping.

        When ``name`` is a string the schema is inferred; a full schema
        fixes both order and types.
        """
        if isinstance(name, RelationSchema):
            schema = name
        else:
            attrs = [
                Attribute(
                    attr_name,
                    infer_type(list(values)),
                    nullable=any(v is None for v in values),
                )
                for attr_name, values in columns.items()
            ]
            schema = RelationSchema(name, attrs)
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        num_rows = lengths.pop() if lengths else 0
        encoded: dict[str, EncodedColumn] = {}
        for attr in schema.attributes:
            if attr.name not in columns:
                raise SchemaError(f"missing values for attribute {attr.name!r}")
            values = list(columns[attr.name])
            if validate:
                values = [_validate_value(attr, v) for v in values]
            encoded[attr.name] = EncodedColumn.from_values(values)
        return cls(schema, encoded, num_rows)

    @classmethod
    def from_store(cls, directory: str) -> "Relation":
        """Materialize a chunked on-disk store (:mod:`repro.storage`).

        Convenience for small stores; large stores should stay on disk
        and be consumed chunk-at-a-time through
        :class:`~repro.storage.reader.StoredRelation`.
        """
        from repro.storage import open_store

        return open_store(directory).to_relation()

    def to_store(self, directory: str, chunk_rows: int = 65_536):
        """Persist this relation as a chunked column store on disk.

        Returns the opened
        :class:`~repro.storage.reader.StoredRelation`; decoding it back
        yields exactly this relation's values (the round-trip contract
        pinned by the storage property suite).
        """
        from repro.storage import write_store

        return write_store(self, directory, chunk_rows=chunk_rows)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The relation schema."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name (from the schema)."""
        return self._schema.name

    @property
    def num_rows(self) -> int:
        """Number of tuples (``|r|`` in the paper)."""
        return self._num_rows

    @property
    def arity(self) -> int:
        """Number of attributes (``|R|`` in the paper)."""
        return self._schema.arity

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return self._schema.attribute_names

    @property
    def stats(self) -> RelationStatistics:
        """Memoizing statistics facade (distinct counts, null counts)."""
        return self._stats

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"Relation({self.name!r}: {self.arity} attributes, {self._num_rows} rows)"

    def column(self, name: str) -> EncodedColumn:
        """The encoded column for attribute ``name``."""
        self._schema.position(name)  # raise UnknownAttributeError if absent
        return self._columns[name]

    def column_values(self, name: str) -> list[Any]:
        """Decoded values of one attribute, in row order."""
        return self.column(name).values()

    def row(self, index: int) -> tuple[Any, ...]:
        """The decoded tuple at ``index``."""
        if not 0 <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range 0..{self._num_rows - 1}")
        return tuple(
            self._columns[name].value(index) for name in self._schema.attribute_names
        )

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over decoded tuples in row order."""
        columns = [self._columns[name] for name in self._schema.attribute_names]
        for index in range(self._num_rows):
            yield tuple(column.value(index) for column in columns)

    def to_dicts(self) -> list[dict[str, Any]]:
        """All rows as ``{attribute: value}`` dicts (small relations only)."""
        names = self._schema.attribute_names
        return [dict(zip(names, row)) for row in self.rows()]

    # ------------------------------------------------------------------
    # Counting and partitioning (the operations the paper needs)
    # ------------------------------------------------------------------
    def count_distinct(self, attrs: Sequence[str]) -> int:
        """``|π_attrs(r)|``: number of distinct value combinations.

        NULL is treated as a regular (distinct) value, matching GROUP BY
        semantics; the FD layer separately forbids NULL-containing
        attributes inside dependencies.  Results are memoized on the
        relation, so repeated confidence/goodness computations over the
        same attribute sets are free.
        """
        return self._stats.count_distinct(attrs)

    def count_distinct_raw(self, attrs: Sequence[str]) -> int:
        """Uncached distinct count; the workhorse behind :meth:`count_distinct`.

        Multi-column counts run through the active kernel backend
        (:mod:`repro.relational.kernels`): one set pass on the python
        backend, a pack-and-sort reduction on numpy.
        """
        return self._stats.count_distinct_raw(attrs)

    def partition(self, attrs: Sequence[str]) -> Partition:
        """The X-clustering over ``attrs`` (paper Definition 5)."""
        names = self._schema.validate_names(attrs)
        if not names:
            return Partition.single_class(self._num_rows)
        code_columns = [self._columns[name].codes for name in names]
        return Partition.from_code_columns(code_columns, self._num_rows)

    def stripped_partition(self, attrs: Sequence[str]) -> StrippedPartition:
        """The stripped X-clustering, cached on the relation.

        This is the hot-path form of :meth:`partition`: singleton
        classes are dropped (they cannot witness violations), results
        are memoized per attribute set, and supersets of cached sets are
        derived by O(covered) refinement instead of a fresh scan.  Since
        relations are immutable the cache never goes stale.
        """
        names = self._schema.validate_names(attrs)
        return self._stats.stripped_partition(names)

    def has_nulls(self, attrs: Sequence[str]) -> bool:
        """Whether any attribute in ``attrs`` contains a NULL."""
        names = self._schema.validate_names(attrs)
        return any(self._columns[name].has_nulls for name in names)

    def non_null_attributes(self) -> tuple[str, ...]:
        """Attributes with no NULLs — the pool of FD-eligible attributes."""
        return tuple(
            name
            for name in self._schema.attribute_names
            if not self._columns[name].has_nulls
        )

    # ------------------------------------------------------------------
    # Relational algebra
    # ------------------------------------------------------------------
    def project(
        self,
        attrs: Sequence[str],
        distinct: bool = False,
        new_name: str | None = None,
    ) -> "Relation":
        """π over ``attrs``; with ``distinct=True`` duplicates are removed."""
        names = self._schema.validate_names(attrs)
        schema = self._schema.project(names, new_name)
        if not distinct:
            columns = {name: _copy_column(self._columns[name]) for name in names}
            return Relation(schema, columns, self._num_rows)
        code_columns = [self._columns[name].kernel_codes() for name in names]
        keep = kernels.get_backend().distinct_rows(code_columns)
        columns = {name: self._columns[name].take(keep) for name in names}
        return Relation(schema, columns, len(keep))

    def select(
        self, predicate: "expr.Predicate | Callable[[dict[str, Any]], bool]"
    ) -> "Relation":
        """σ over an IR predicate (:mod:`repro.relational.expr`).

        IR predicates evaluate columnar through the kernel backend
        (code-space masks; no row dicts are materialized).  A plain
        ``Callable[[dict], bool]`` is deprecated: it runs the legacy
        per-row loop and will be removed — build an IR predicate (or go
        through the SQL layer) instead.
        """
        if expr.is_predicate(predicate):
            return self.take(expr.filter_rows(self, predicate))
        warnings.warn(
            "Relation.select with a callable predicate is deprecated; "
            "pass a repro.relational.expr predicate instead",
            DeprecationWarning,
            stacklevel=2,
        )
        names = self._schema.attribute_names
        columns = [self._columns[name] for name in names]
        keep = [
            row
            for row in range(self._num_rows)
            if predicate(dict(zip(names, (column.value(row) for column in columns))))
        ]
        return self.take(keep)

    def take(self, rows: Sequence[int]) -> "Relation":
        """A new relation containing exactly ``rows`` (in the given order)."""
        columns = {
            name: self._columns[name].take(rows)
            for name in self._schema.attribute_names
        }
        return Relation(self._schema, columns, len(rows))

    def head(self, count: int) -> "Relation":
        """The first ``count`` rows."""
        return self.take(range(min(count, self._num_rows)))

    def rename(self, new_name: str) -> "Relation":
        """The same instance under a different relation name."""
        return Relation(
            self._schema.rename(new_name),
            {name: _copy_column(col) for name, col in self._columns.items()},
            self._num_rows,
        )

    def extend(
        self, rows: Iterable[Sequence[Any]], validate: bool = True
    ) -> "Relation":
        """An appended snapshot that inherits this relation's warm state.

        The returned relation holds this instance's tuples followed by
        ``rows``.  Unlike ``from_rows`` over the concatenation, the new
        snapshot *shares and patches* the parent's cached state instead
        of recomputing it: columns append to storage shared along the
        extension chain in place of re-factorization or copying (only
        the chain head appends in place; a second branch copies first),
        and every attribute set the parent had
        counted, partitioned, or delta-tracked is folded forward in
        O(Δ) by the delta engine (:mod:`repro.relational.delta`).  The
        parent relation remains valid and immutable; its group trackers
        migrate to the child (an extension chain has one live head).

        Results are indistinguishable from a cold build: identical
        columns, counts and partitions (see the delta module's
        equivalence contract).
        """
        materialized = [tuple(row) for row in rows]
        arity = self.arity
        for row in materialized:
            if len(row) != arity:
                raise ArityError(arity, len(row))
        columns: dict[str, EncodedColumn] = {}
        for position, attr in enumerate(self._schema.attributes):
            values: list[Any] = [row[position] for row in materialized]
            if validate:
                values = [_validate_value(attr, value) for value in values]
            columns[attr.name] = self._columns[attr.name].extended(values)
        child = Relation(self._schema, columns, self._num_rows + len(materialized))
        child._stats.adopt_delta(self._stats)
        return child

    def with_row_appended(self, row: Sequence[Any], validate: bool = True) -> "Relation":
        """A new relation with one extra tuple (functional update)."""
        if len(row) != self.arity:
            raise ArityError(self.arity, len(row))
        columns: dict[str, EncodedColumn] = {}
        for attr, value in zip(self._schema.attributes, row):
            if validate:
                value = _validate_value(attr, value)
            old = self._columns[attr.name]
            new = EncodedColumn(list(old.codes), list(old.dictionary))
            new.append_value(value)
            columns[attr.name] = new
        return Relation(self._schema, columns, self._num_rows + 1)


def _copy_column(column: EncodedColumn) -> EncodedColumn:
    copy = EncodedColumn(list(column.codes), list(column.dictionary))
    # The cached kernel array is immutable and encodes the same codes,
    # so the copy can share it until one of them is mutated in place.
    copy._codes_array = column._codes_array
    return copy


def _validate_value(attr: Attribute, value: Any) -> Any:
    if value is None:
        if not attr.nullable:
            raise TypeMismatchError(attr.name, value, f"non-null {attr.type.value}")
        return None
    if not attr.type.validate(value):
        try:
            return attr.type.coerce(value)
        except (ValueError, TypeError):
            raise TypeMismatchError(attr.name, value, attr.type.value) from None
    return value


def _transpose(rows: list[tuple[Any, ...]], arity: int) -> list[list[Any]]:
    if not rows:
        return [[] for _ in range(arity)]
    return [list(column) for column in zip(*rows)]
