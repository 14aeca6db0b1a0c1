"""SQL over chunked stores: filter-pushdown scans with zone-map skips.

An attached store is an ordinary SQL table; the executor reads it
through :func:`scan_store`, with the ``Filter`` directly above its
``Scan`` fused into the call, so the WHERE runs once per surviving
chunk.  :func:`scan_store` walks the store one chunk at a time,
evaluates the (compiled) predicate columnar on each chunk — the
predicate mask kernels, identical error semantics — and materializes
**only the surviving rows** of the requested columns.  Peak memory is
one chunk plus the result, so a selective query over an SF-1 table
runs in a fraction of the table's footprint.

One physical optimization rides the walk:

* **Zone-map chunk skipping** (format-v2 stores): a chunk is skipped
  entirely when one WHERE conjunct is *refuted* by its
  :class:`~repro.storage.format.ChunkZone` — the literal falls outside
  the chunk's min/max range, misses a
  small-dictionary membership set, or asserts NULLs a NULL-free chunk
  cannot have.  Skipping is error-exact: conjuncts are considered in
  order and the walk stops consulting zones at the first conjunct that
  could *raise* on the chunk (incomparable order comparison,
  arithmetic), because the columnar evaluator's short-circuit
  reachability would surface that error even on an all-false chunk
  prefix — so a skip happens only where the full scan provably
  returns nothing and raises nothing.  :func:`_surviving_chunks` is
  the one walk; ``EXPLAIN`` runs it dry.

:func:`query_store` is a one-call shim: the statement runs through the
same parse → plan → optimize → execute path over a catalog holding
only the store.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.relational import expr as ir
from repro.relational.catalog import Catalog
from repro.relational.errors import UnknownRelationError
from repro.relational.relation import Relation
from repro.sql.errors import SqlExecutionError
from repro.sql.executor import ResultSet, _execute_query, compile_expression
from repro.sql.parser import parse

from .format import ChunkZone
from .reader import StoredRelation

__all__ = [
    "ScanStats",
    "compile_where",
    "query_store",
    "scan_store",
]


@dataclass
class ScanStats:
    """Chunk-skipping counters one :func:`scan_store` call fills in.

    Pass an instance via ``scan_store(..., stats=...)`` (or
    ``query_store(..., scan_stats=...)``) to observe how many chunks the
    zone maps refuted (``EXPLAIN`` reports the same count, dry).
    """

    chunks_total: int = 0
    chunks_skipped: int = 0

    @property
    def chunks_scanned(self) -> int:
        return self.chunks_total - self.chunks_skipped


def compile_where(condition: str) -> ir.Predicate:
    """Compile a bare SQL condition string into the predicate IR.

    ``compile_where("price > 100 AND status = 'O'")`` — the condition
    is parsed with the real SQL grammar (column references resolve by
    name, qualifiers dropped).
    """
    query = parse(f"SELECT * FROM _scan WHERE {condition}")
    assert query.where is not None
    return compile_expression(query.where)


def _as_predicate(where: "str | ir.Predicate | None") -> ir.Predicate | None:
    if where is None:
        return None
    if isinstance(where, str):
        return compile_where(where)
    if not ir.is_predicate(where):
        raise SqlExecutionError(f"not a predicate: {where!r}")
    return where


# ----------------------------------------------------------------------
# Zone-map refutation
# ----------------------------------------------------------------------
_ZoneLookup = Callable[[str], "ChunkZone | None"]

_FLIPPED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _split_conjuncts(predicate: ir.Predicate) -> list[ir.Predicate]:
    """Flatten an AND tree left-to-right (mirrors the evaluator's order)."""
    out: list[ir.Predicate] = []

    def walk(node: ir.Predicate) -> None:
        if isinstance(node, ir.And):
            walk(node.left)
            walk(node.right)
        else:
            out.append(node)

    walk(predicate)
    return out


def _literal_family(value: Any) -> str | None:
    """The comparable family of a literal; bools count as ``"num"``
    (Python orders them with numbers, unlike chunk *kind* classification
    where a bool-valued column gets no range)."""
    if isinstance(value, bool):
        return "num"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


def _col_op_lit(conjunct: ir.Predicate) -> tuple[str, str, Any] | None:
    """Normalize a ``Col <op> Lit`` / ``Lit <op> Col`` comparison to
    ``(column, op, literal)`` with the column on the left."""
    if not isinstance(conjunct, ir.Cmp):
        return None
    if isinstance(conjunct.left, ir.Col) and isinstance(conjunct.right, ir.Lit):
        return conjunct.left.name, conjunct.op, conjunct.right.value
    if isinstance(conjunct.left, ir.Lit) and isinstance(conjunct.right, ir.Col):
        return conjunct.right.name, _FLIPPED_OP[conjunct.op], conjunct.left.value
    return None


def _may_raise_on_chunk(
    conjunct: ir.Predicate, zone_of: _ZoneLookup, chunk_rows: int
) -> bool:
    """Whether evaluating ``conjunct`` could raise on this chunk.

    Conservative: ``True`` unless the zone map *proves* otherwise.
    Equality and membership never raise over scalar store values;
    order comparisons are safe when the literal's family matches the
    chunk's zone kind (or the comparison short-circuits on NULL/NaN).
    """
    if isinstance(conjunct, (ir.And, ir.Or)):
        return _may_raise_on_chunk(
            conjunct.left, zone_of, chunk_rows
        ) or _may_raise_on_chunk(conjunct.right, zone_of, chunk_rows)
    if isinstance(conjunct, ir.Not):
        return _may_raise_on_chunk(conjunct.operand, zone_of, chunk_rows)
    if isinstance(conjunct, (ir.IsNull, ir.InList)):
        # Membership/null tests over a plain column or literal cannot
        # raise; an Arith operand can (type error, division by zero).
        return not isinstance(conjunct.operand, (ir.Col, ir.Lit))
    if isinstance(conjunct, ir.Cmp):
        if not isinstance(conjunct.left, (ir.Col, ir.Lit)) or not isinstance(
            conjunct.right, (ir.Col, ir.Lit)
        ):
            return True
        if conjunct.op in ("=", "<>"):
            return False
        shape = _col_op_lit(conjunct)
        if shape is None:
            return True  # col-vs-col (or lit-vs-lit) order comparison
        name, _, literal = shape
        if literal is None:
            return False  # NULL comparisons short-circuit to false
        zone = zone_of(name)
        if zone is None:
            return True
        if zone.null_count == chunk_rows:
            return False  # every row short-circuits on NULL
        family = _literal_family(literal)
        return family is None or zone.kind != family
    return True


def _refutes_eq(zone: ChunkZone, literal: Any) -> bool:
    """No non-null value of the chunk can ``=``-match ``literal``."""
    if literal is None or literal != literal:
        return True  # NULL / NaN equal nothing under the oracle
    if zone.members is not None:
        return not any(member == literal for member in zone.members)
    family = _literal_family(literal)
    if zone.kind is not None and zone.kind == family:
        return literal < zone.min_value or literal > zone.max_value
    return False


def _zone_refutes(
    conjunct: ir.Predicate, zone_of: _ZoneLookup, chunk_rows: int
) -> bool:
    """Whether the zone map proves ``conjunct`` matches no chunk row.

    Callers must already have established (via
    :func:`_may_raise_on_chunk`) that the conjunct cannot raise here.
    """
    if isinstance(conjunct, ir.Cmp):
        shape = _col_op_lit(conjunct)
        if shape is None:
            return False
        name, op, literal = shape
        zone = zone_of(name)
        if zone is None:
            return False
        if literal is None:
            return True  # a NULL operand makes every comparison false
        if zone.null_count == chunk_rows:
            return True  # all-NULL chunk: every comparison is false
        if op == "=":
            return _refutes_eq(zone, literal)
        if op == "<>":
            return zone.members is not None and all(
                member == literal for member in zone.members
            )
        if literal != literal:
            return True  # order comparisons against NaN are false
        family = _literal_family(literal)
        if zone.kind is None or zone.kind != family:
            return False
        if op == "<":
            return zone.min_value >= literal
        if op == "<=":
            return zone.min_value > literal
        if op == ">":
            return zone.max_value <= literal
        return zone.max_value < literal  # ">="
    if isinstance(conjunct, ir.InList):
        if not isinstance(conjunct.operand, ir.Col):
            return False
        zone = zone_of(conjunct.operand.name)
        if zone is None:
            return False
        if zone.null_count == chunk_rows:
            return True
        return all(
            item is None or _refutes_eq(zone, item) for item in conjunct.values
        )
    if isinstance(conjunct, ir.IsNull):
        if not isinstance(conjunct.operand, ir.Col):
            return False
        zone = zone_of(conjunct.operand.name)
        if zone is None:
            return False
        if conjunct.negated:
            return zone.null_count == chunk_rows
        return zone.null_count == 0
    if isinstance(conjunct, ir.Not):
        inner = conjunct.operand
        if isinstance(inner, ir.IsNull):
            return _zone_refutes(
                ir.IsNull(inner.operand, not inner.negated), zone_of, chunk_rows
            )
        if isinstance(inner, ir.InList) and isinstance(inner.operand, ir.Col):
            # NOT IN under two-valued NOT: NULL (and NaN) rows satisfy
            # it, so refutation needs a NULL-free chunk whose every
            # dictionary value provably matches the list.
            zone = zone_of(inner.operand.name)
            if zone is None or zone.null_count or zone.members is None:
                return False
            return all(
                any(item is not None and member == item for item in inner.values)
                for member in zone.members
            )
    return False


def _chunk_refuted(
    conjuncts: list[ir.Predicate], zone_of: _ZoneLookup, chunk_rows: int
) -> bool:
    """Left-to-right conjunct walk, stopping at the first that might
    raise on this chunk — exactly the prefix whose all-false outcome
    makes every later conjunct's error unreachable under the columnar
    evaluator's short-circuit reachability."""
    for conjunct in conjuncts:
        if _may_raise_on_chunk(conjunct, zone_of, chunk_rows):
            return False
        if _zone_refutes(conjunct, zone_of, chunk_rows):
            return True
    return False


def _surviving_chunks(
    store: StoredRelation, predicate: ir.Predicate | None
) -> list[int]:
    """The chunks whose zone maps do not refute ``predicate``, in order.

    No chunk is read: this is the walk :func:`scan_store` reads the
    survivors of and ``EXPLAIN`` counts.
    """
    if predicate is None:
        return list(range(store.num_chunks))
    conjuncts = _split_conjuncts(predicate)
    sizes = store.manifest.chunk_sizes
    return [
        chunk
        for chunk in range(store.num_chunks)
        if not _chunk_refuted(conjuncts, _zone_lookup(store, chunk), sizes[chunk])
    ]


def scan_store(
    store: StoredRelation,
    where: "str | ir.Predicate | None" = None,
    columns: Sequence[str] | None = None,
    stats: ScanStats | None = None,
) -> Relation:
    """A chunked, filter-pushdown scan materializing only survivors.

    ``where`` (SQL condition string or IR predicate) is evaluated
    columnar per chunk; ``columns`` prunes the output width (predicate
    columns are read regardless but not kept); ``stats`` receives the
    zone-map skip counters.  Chunks whose zone map refutes a WHERE
    conjunct are skipped without being read (format-v2 store).
    The result is an ordinary in-memory :class:`Relation` carrying the
    store's schema (projected), ready for the executor.
    """
    predicate = _as_predicate(where)
    out_names = (
        store.schema.attribute_names
        if columns is None
        else tuple(store.schema.validate_names(columns))
    )
    if predicate is None:
        scan_names: tuple[str, ...] = out_names
    else:
        pred_names = tuple(
            dict.fromkeys(
                name
                for name in ir.columns_of(predicate)
                if name not in out_names
            )
        )
        unknown = [
            name
            for name in pred_names
            if name not in store.schema.attribute_names
        ]
        if unknown:
            raise SqlExecutionError(f"unknown column {unknown[0]!r}")
        scan_names = out_names + pred_names
    out_schema = (
        store.schema if columns is None else store.schema.project(out_names)
    )
    keep = tuple(range(len(out_names)))
    surviving = _surviving_chunks(store, predicate)
    if stats is not None:
        stats.chunks_total = store.num_chunks
        stats.chunks_skipped = store.num_chunks - len(surviving)
    rows: list[tuple[Any, ...]] = []
    for chunk in surviving:
        relation = store.chunk_relation(chunk, scan_names)
        if predicate is not None:
            relation = relation.select(predicate)
        for row in relation.rows():
            rows.append(tuple(row[i] for i in keep))
    return Relation.from_rows(out_schema, rows, validate=False)


def _zone_lookup(store: StoredRelation, chunk: int) -> _ZoneLookup:
    def zone_of(name: str) -> ChunkZone | None:
        try:
            return store.chunk_zone(name, chunk)
        except KeyError:  # defensive: predicate names are pre-validated
            return None

    return zone_of


def query_store(
    store: StoredRelation,
    sql: str,
    scan_stats: ScanStats | None = None,
) -> ResultSet:
    """``execute`` over a catalog holding only ``store``, which the FROM
    clause must name; ``scan_stats`` receives the FROM scan's counters."""
    query = parse(sql)
    if query.table != store.name:
        raise SqlExecutionError(
            f"query targets {query.table!r} but got store {store.name!r}"
        )
    catalog = Catalog()
    catalog.attach_store(store)
    try:
        return _execute_query(catalog, query, scan_stats)
    except UnknownRelationError as error:
        raise SqlExecutionError(
            f"{error}: query_store sees only store {store.name!r}"
        ) from None
