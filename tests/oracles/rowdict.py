"""The row-dict SQL interpreter: the columnar executor's test oracle.

Frames hold decoded row tuples and every operator is a per-row tree
walk.  The equivalence suites run a plan through both this interpreter
and :mod:`repro.sql.executor` and assert identical results, NULL/NaN
edge cases and error messages included.

It deliberately shares the executor's semantic helpers — aggregate
folds, the ORDER BY total order, arithmetic, name resolution and the
LIMIT/OFFSET slice — so the comparison is byte-exact; everything else
(filtering, joining, grouping, sorting) is its own row-at-a-time code.
"""

from __future__ import annotations

from typing import Any

from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.sql.ast import (
    AggregateCall,
    And,
    Arith,
    ColumnRef,
    Comparison,
    CountDistinct,
    CountStar,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    SelectQuery,
)
from repro.sql.errors import SqlExecutionError
from repro.sql.executor import (
    ResultRow,
    ResultSet,
    _arith_value,
    _distinct_ranks,
    _fold_spec,
    _peel_result_shape,
    _resolve_ref,
    _slice_positions,
)
from repro.sql.parser import parse
from repro.sql.plan import (
    Aggregate,
    Filter,
    Join,
    Plan,
    Scan,
    Sort,
    SortKey,
    plan_query,
)

__all__ = ["RowdictEngine", "execute", "execute_on_relation", "run"]


def execute(catalog: Catalog, sql: str) -> ResultSet:
    """Parse, plan (unoptimized) and interpret ``sql`` over a catalog."""
    return RowdictEngine(catalog, None).run(plan_query(parse(sql)))


def execute_on_relation(relation: Relation, sql: str) -> ResultSet:
    """Interpret ``sql``; the FROM clause must name this relation."""
    query = parse(sql)
    if query.table != relation.name:
        raise SqlExecutionError(
            f"query targets {query.table!r} but got relation {relation.name!r}"
        )
    return run(relation, query)


def run(relation: Relation, query: SelectQuery) -> ResultSet:
    """Interpret a parsed query against one relation (no catalog)."""
    return RowdictEngine(None, relation).run(plan_query(query))


class _RFrame:
    """Decoded row tuples plus the same (names, qualifiers) schema."""

    __slots__ = ("names", "quals", "rows")

    def __init__(
        self, names: list[str], quals: list[str | None], rows: list[tuple[Any, ...]]
    ) -> None:
        self.names = names
        self.quals = quals
        self.rows = rows

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        qualifier: str,
        subset: tuple[str, ...] | None = None,
    ) -> "_RFrame":
        names = list(relation.attribute_names)
        if subset is not None:
            names = [name for name in names if name in subset] or names[:1]
        columns = [relation.column(name) for name in names]
        rows = [
            tuple(column.value(row) for column in columns)
            for row in range(relation.num_rows)
        ]
        return cls(names, [qualifier] * len(names), rows)

    def resolve(self, ref: ColumnRef) -> int:
        return _resolve_ref(self.names, self.quals, ref)


class RowdictEngine:
    def __init__(self, catalog: Catalog | None, relation: Relation | None) -> None:
        self._catalog = catalog
        self._relation = relation

    def run(self, plan: Plan) -> ResultSet:
        limit, project = _peel_result_shape(plan)
        frame = self._frame(project.source)
        if project.names == ("*",):
            names = tuple(frame.names)
            out_rows = list(frame.rows)
        else:
            names = tuple(project.names)
            for expression in project.expressions:
                self._bind(frame, expression)
            out_rows = [
                tuple(
                    self._value(expression, frame, row)
                    for expression in project.expressions
                )
                for row in frame.rows
            ]
        if project.distinct:
            seen: dict[tuple[Any, ...], None] = {}
            deduped = []
            for row in out_rows:
                if row not in seen:
                    seen[row] = None
                    deduped.append(row)
            out_rows = deduped
        positions = _slice_positions(range(len(out_rows)), limit)
        return ResultSet(
            names, tuple(ResultRow(out_rows[p], names) for p in positions)
        )

    # -- operators ------------------------------------------------------
    def _frame(self, plan: Plan) -> _RFrame:
        if isinstance(plan, Scan):
            return _RFrame.from_relation(
                self._scan_relation(plan), plan.binding, plan.columns
            )
        if isinstance(plan, Filter):
            return self._filter(self._frame(plan.source), plan)
        if isinstance(plan, Join):
            return self._join(self._frame(plan.source), plan)
        if isinstance(plan, Aggregate):
            return self._aggregate(self._frame(plan.source), plan)
        if isinstance(plan, Sort):
            return self._sort(self._frame(plan.source), plan.keys)
        raise SqlExecutionError(f"unsupported plan node {type(plan).__name__}")

    def _scan_relation(self, scan: Scan) -> Relation:
        if self._catalog is None:
            assert self._relation is not None
            return self._relation
        return self._catalog.relation(scan.table)

    def _bind(self, frame: _RFrame, expression: Expression) -> None:
        """Eager static resolution of every column reference."""
        if isinstance(expression, ColumnRef):
            frame.resolve(expression)
            return
        if isinstance(expression, (Arith, Comparison, And, Or)):
            self._bind(frame, expression.left)
            self._bind(frame, expression.right)
            return
        if isinstance(expression, (IsNull, Not, InList)):
            self._bind(frame, expression.operand)
            return
        if isinstance(expression, (Literal, CountStar, CountDistinct)):
            return
        if isinstance(expression, AggregateCall):
            self._bind(frame, expression.argument)
            return
        raise SqlExecutionError(f"cannot evaluate {expression!r}")

    def _filter(self, frame: _RFrame, node: Filter) -> _RFrame:
        self._bind(frame, node.predicate)
        kept = [
            row
            for row in frame.rows
            if self._truth(node.predicate, frame, row)
        ]
        return _RFrame(frame.names, frame.quals, kept)

    def _value(self, expression: Expression, frame: _RFrame, row: tuple) -> Any:
        if isinstance(expression, ColumnRef):
            return row[frame.resolve(expression)]
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, Arith):
            return _arith_value(
                expression.op,
                self._value(expression.left, frame, row),
                self._value(expression.right, frame, row),
            )
        raise SqlExecutionError(f"cannot evaluate {expression!r} as a value")

    def _truth(self, expression: Expression, frame: _RFrame, row: tuple) -> bool:
        if isinstance(expression, Comparison):
            left = self._value(expression.left, frame, row)
            right = self._value(expression.right, frame, row)
            if left is None or right is None:
                return False
            op = expression.op
            try:
                if op == "=":
                    return bool(left == right)
                if op == "<>":
                    return bool(left != right)
                if op == "<":
                    return bool(left < right)
                if op == "<=":
                    return bool(left <= right)
                if op == ">":
                    return bool(left > right)
                if op == ">=":
                    return bool(left >= right)
            except TypeError:
                raise SqlExecutionError(
                    f"cannot compare {left!r} and {right!r} with {op}"
                ) from None
            raise SqlExecutionError(f"unknown comparison operator {op!r}")
        if isinstance(expression, InList):
            value = self._value(expression.operand, frame, row)
            if value is None:
                return expression.negated
            hit = any(item is not None and value == item for item in expression.values)
            return (not hit) if expression.negated else hit
        if isinstance(expression, IsNull):
            value = self._value(expression.operand, frame, row)
            return (value is not None) if expression.negated else (value is None)
        if isinstance(expression, Not):
            return not self._truth(expression.operand, frame, row)
        if isinstance(expression, And):
            return self._truth(expression.left, frame, row) and self._truth(
                expression.right, frame, row
            )
        if isinstance(expression, Or):
            return self._truth(expression.left, frame, row) or self._truth(
                expression.right, frame, row
            )
        raise SqlExecutionError(f"cannot evaluate {expression!r} as a predicate")

    def _join(self, frame: _RFrame, node: Join) -> _RFrame:
        if self._catalog is None:
            raise SqlExecutionError("joins require a catalog")
        right = _RFrame.from_relation(
            self._catalog.relation(node.table), node.binding, node.columns
        )
        left_positions = [frame.resolve(ref) for ref in node.left_keys]
        right_positions = [right.resolve(ref) for ref in node.right_keys]
        build: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        for row in right.rows:
            key = tuple(row[p] for p in right_positions)
            if any(v is None or v != v for v in key):  # NULL/NaN never match
                continue
            build.setdefault(key, []).append(row)
        padding = (None,) * len(right.names)
        out_rows: list[tuple[Any, ...]] = []
        for row in frame.rows:
            key = tuple(row[p] for p in left_positions)
            if any(v is None or v != v for v in key):
                matches = None
            else:
                matches = build.get(key)
            if matches is None:
                if node.kind == "left":
                    out_rows.append(row + padding)
                continue
            for match in matches:
                out_rows.append(row + match)
        return _RFrame(
            frame.names + right.names, frame.quals + right.quals, out_rows
        )

    def _aggregate(self, frame: _RFrame, node: Aggregate) -> _RFrame:
        key_positions = [frame.resolve(key) for key in node.group_by]
        groups: dict[tuple[Any, ...], list[int]] = {}
        if key_positions:
            for index, row in enumerate(frame.rows):
                key = tuple(row[p] for p in key_positions)
                groups.setdefault(key, []).append(index)
            group_rows = list(groups.values())
        else:
            group_rows = [list(range(len(frame.rows)))]
        arg_columns_per_spec = []
        for spec in node.specs:
            for argument in spec.arguments:
                self._bind(frame, argument)
            arg_columns_per_spec.append(
                [
                    [self._value(argument, frame, row) for row in frame.rows]
                    for argument in spec.arguments
                ]
            )
        out_rows = []
        for rows in group_rows:
            record = [frame.rows[rows[0]][p] for p in key_positions]
            for spec, arg_columns in zip(node.specs, arg_columns_per_spec):
                record.append(_fold_spec(spec, arg_columns, rows))
            out_rows.append(tuple(record))
        names = [frame.names[p] for p in key_positions]
        quals: list[str | None] = [frame.quals[p] for p in key_positions]
        for index in range(len(node.specs)):
            names.append(f"__agg{index}")
            quals.append(None)
        return _RFrame(names, quals, out_rows)

    def _sort(self, frame: _RFrame, keys: tuple[SortKey, ...]) -> _RFrame:
        rank_columns: list[list[int]] = []
        for key in keys:
            self._bind(frame, key.expression)
            values = [
                self._value(key.expression, frame, row) for row in frame.rows
            ]
            # First-seen distinct values (identity-aware for NaN, like
            # the columnar dictionary), ranked by the shared total order.
            index: dict[Any, int] = {}
            distinct: list[Any] = []
            codes = []
            for value in values:
                if value is None:
                    codes.append(-1)
                    continue
                slot = index.get(value)
                if slot is None:
                    slot = len(distinct)
                    index[value] = slot
                    distinct.append(value)
                codes.append(slot)
            ranks = _distinct_ranks(distinct)
            sign = -1 if key.descending else 1
            rank_columns.append(
                [sign * (0 if code < 0 else ranks[code]) for code in codes]
            )
        order = sorted(
            range(len(frame.rows)),
            key=lambda row: tuple(column[row] for column in rank_columns),
        )
        return _RFrame(frame.names, frame.quals, [frame.rows[i] for i in order])
