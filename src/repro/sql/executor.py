"""Plan executor: the third stage of parse → plan → execute.

A logical plan (:mod:`repro.sql.plan`) is evaluated bottom-up over
*frames* — ordered columns with a name and a table qualifier each.
Results come back as a :class:`ResultSet` (column names plus row
tuples with dict-style access).

Frames hold dictionary-encoded
:class:`~repro.relational.encoding.EncodedColumn` vectors.  Filters
compile to the typed predicate IR of :mod:`repro.relational.expr` and
run as vectorized masks through the active kernel backend; joins remap
one side's dictionary into the other's code space and run the
``hash_join_index`` / ``left_join_index`` kernels; grouping rides
``group_rows``; ORDER BY pre-computes integer ranks per dictionary
entry and argsorts them with the ``sort_index`` kernel.

A table is what ``Catalog.table(name)`` returns: a relation, or an
attached store read through :func:`repro.storage.sqlbridge.scan_store`
with the ``Filter`` directly above its ``Scan`` fused into the scan.

Name resolution is *static and eager*: every column reference in a
filter, projection, join key, or sort key is resolved against the
input frame (respecting ``t.col`` qualifiers, rejecting ambiguous
names) before any row is evaluated.

The semantic helpers below are shared with the row-at-a-time SQL
interpreter under ``tests/oracles/``, which makes the equivalence
suites' comparison byte-exact:

* :func:`_fold_spec` — aggregate folds (``SUM``/``MIN``/``MAX``/``AVG``
  skip NULLs and return NULL on empty input; ``COUNT`` returns 0), so
  float accumulation order is identical;
* :func:`_distinct_ranks` — the total order ORDER BY uses
  (NULL smallest, then NaN, then value order; incomparable mixes
  raise), applied to the first-seen distinct values.

SQL semantics that matter to the paper are unchanged from the
pre-plan executor: ``COUNT(DISTINCT a, b)`` ignores rows where any
counted attribute is NULL, and comparisons with NULL are never true
(two-valued logic; ``NOT (A = 3)`` is true on a NULL row).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.relational import expr as ir
from repro.relational import kernels
from repro.relational.catalog import Catalog
from repro.relational.encoding import EncodedColumn, remap_dictionary
from repro.relational.errors import UnknownAttributeError
from repro.relational.relation import Relation

from .ast import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    SelectQuery,
)
from .errors import PlanError, SqlExecutionError
from .optimize import optimize_plan
from .parser import parse
from .stats import StatisticsProvider
from .plan import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
    SortKey,
    plan_query,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; storage imports this module
    from repro.storage.sqlbridge import ScanStats

__all__ = [
    "ResultRow",
    "ResultSet",
    "SqlExecutionError",
    "PlanError",
    "compile_expression",
    "execute",
    "execute_on_relation",
    "execute_plan",
]

#: Code-space sentinel for a right-side NULL join key: never equal to a
#: left code (≥ 0), a left NULL (-1), or an unseen value (-2), so SQL's
#: "NULL never matches" falls out of plain int equality.
_JOIN_NULL = -3


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class ResultRow(tuple):
    """One result row: a tuple that also answers to column names."""

    def __new__(cls, values: Iterable[Any], names: tuple[str, ...]):
        row = super().__new__(cls, values)
        row._names = names
        return row

    def __getitem__(self, key):
        if isinstance(key, str):
            try:
                index = self._names.index(key)
            except ValueError:
                raise KeyError(f"unknown column {key!r}") from None
            return tuple.__getitem__(self, index)
        return tuple.__getitem__(self, key)

    def as_dict(self) -> dict[str, Any]:
        """The row as ``{column: value}`` (first wins on duplicates)."""
        out: dict[str, Any] = {}
        for name, value in zip(self._names, self):
            out.setdefault(name, value)
        return out


@dataclass(frozen=True)
class ResultSet:
    """Query output: ordered column names and row tuples."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    @property
    def column_names(self) -> tuple[str, ...]:
        """Alias of :attr:`columns` (the facade-facing name)."""
        return self.columns

    @property
    def scalar(self) -> Any:
        """The single value of a 1×1 result (e.g. a COUNT)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlExecutionError(
                f"expected a scalar result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int):
        return self.rows[index]

    def to_text(self, max_rows: int = 20) -> str:
        """A plain-text rendering (used by the CLI)."""
        header = " | ".join(self.columns)
        divider = "-" * len(header)
        body = [
            " | ".join("NULL" if v is None else str(v) for v in row)
            for row in self.rows[:max_rows]
        ]
        if len(self.rows) > max_rows:
            body.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join([header, divider, *body])

    def to_csv(self) -> str:
        """The result as CSV text (header row first, NULL → empty)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
        return buffer.getvalue()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def execute(catalog: Catalog, sql: str) -> ResultSet:
    """Parse, plan, optimize and run ``sql`` against a catalog."""
    return _execute_query(catalog, parse(sql))


def execute_plan(
    catalog: Catalog,
    plan: Plan,
    engine: str = "columnar",
    optimize: str = "off",
) -> ResultSet:
    """Run exactly the given logical plan against a catalog.

    ``engine`` and ``optimize`` remain positional for existing callers
    that pass ``"columnar", "off"``; no other value is accepted.
    """
    if engine != "columnar":
        raise SqlExecutionError(f"unknown engine {engine!r}; expected 'columnar'")
    if optimize != "off":
        raise SqlExecutionError(
            f"execute_plan runs the plan it is given; optimize must be 'off', "
            f"got {optimize!r} (call optimize_plan first)"
        )
    return _ColumnarEngine(catalog).run(plan)


def execute_on_relation(relation: Relation, sql: str) -> ResultSet:
    """:func:`execute` over a catalog holding just ``relation``; the
    FROM clause must name it."""
    query = parse(sql)
    if query.table != relation.name:
        raise SqlExecutionError(
            f"query targets {query.table!r} but got relation {relation.name!r}"
        )
    catalog = Catalog()
    catalog.add_relation(relation)
    return _execute_query(catalog, query)


def _execute_query(
    catalog: Catalog, query: SelectQuery, scan_stats: "ScanStats | None" = None
) -> ResultSet:
    """Plan, optimize and run a parsed query (``scan_stats``: see _table)."""
    plan = optimize_plan(plan_query(query), StatisticsProvider(catalog=catalog))
    return _ColumnarEngine(catalog, scan_stats).run(plan)


# ----------------------------------------------------------------------
# AST → IR compilation
# ----------------------------------------------------------------------
def compile_expression(expression: Expression) -> ir.Predicate:
    """Compile a parsed WHERE AST into the relational predicate IR.

    Column references compile by *name* (qualifiers are dropped); the
    executor itself compiles by resolved frame position instead.
    """
    return _compile(expression, lambda ref: ref.name)


def _compile(expression: Expression, column: Callable[[ColumnRef], str]) -> Any:
    """AST → IR, naming each referenced column ``column(ref)``."""
    if isinstance(expression, ColumnRef):
        return ir.Col(column(expression))
    if isinstance(expression, Literal):
        return ir.Lit(expression.value)
    if isinstance(expression, Arith):
        return ir.Arith(
            expression.op,
            _compile(expression.left, column),
            _compile(expression.right, column),
        )
    if isinstance(expression, Comparison):
        return ir.Cmp(
            expression.op,
            _compile(expression.left, column),
            _compile(expression.right, column),
        )
    if isinstance(expression, InList):
        membership = ir.InList(_compile(expression.operand, column), expression.values)
        return ir.Not(membership) if expression.negated else membership
    if isinstance(expression, IsNull):
        return ir.IsNull(_compile(expression.operand, column), expression.negated)
    if isinstance(expression, Not):
        return ir.Not(_compile(expression.operand, column))
    if isinstance(expression, And):
        return ir.And(
            _compile(expression.left, column), _compile(expression.right, column)
        )
    if isinstance(expression, Or):
        return ir.Or(
            _compile(expression.left, column), _compile(expression.right, column)
        )
    raise SqlExecutionError(f"cannot evaluate {expression!r} as a predicate")


def _well_formed(node: Any, predicate: bool = True) -> bool:
    """Whether ``node`` is a predicate over operands all the way down.

    Evaluating any other tree raises a message quoting the IR, whose
    column names differ between a frame (positions) and a store scan.
    """
    if not predicate:
        if isinstance(node, ir.Arith):
            return _well_formed(node.left, False) and _well_formed(node.right, False)
        return isinstance(node, (ir.Col, ir.Lit))
    if isinstance(node, (ir.And, ir.Or)):
        return _well_formed(node.left) and _well_formed(node.right)
    if isinstance(node, ir.Not):
        return _well_formed(node.operand)
    if isinstance(node, ir.Cmp):
        return _well_formed(node.left, False) and _well_formed(node.right, False)
    return isinstance(node, (ir.InList, ir.IsNull)) and _well_formed(
        node.operand, False
    )


# ----------------------------------------------------------------------
# Shared semantics (the test oracle imports these too)
# ----------------------------------------------------------------------
def _resolve_ref(
    names: Sequence[str], quals: Sequence[str | None], ref: ColumnRef
) -> int:
    """Static name resolution against a frame schema."""
    matches = [
        i
        for i, (name, qual) in enumerate(zip(names, quals))
        if name == ref.name and (ref.table is None or qual == ref.table)
    ]
    if not matches:
        raise SqlExecutionError(f"unknown column {ref.qualified!r}")
    if len(matches) > 1:
        raise SqlExecutionError(f"ambiguous column {ref.qualified!r}")
    return matches[0]


def _fold_spec(
    spec: AggregateSpec, arg_columns: Sequence[Sequence[Any]], rows: Iterable[int]
) -> Any:
    """One aggregate value over one group.

    ``arg_columns`` holds the fully evaluated argument values (whole
    frame); ``rows`` selects the group.  Rows with a NULL in any
    argument are skipped (SQL), DISTINCT keeps first-seen unique
    tuples, and the fold iterates in group row order — shared between
    the executor and its test oracle so float results are bit-identical.
    """
    if not spec.arguments:  # COUNT(*)
        return sum(1 for _ in rows)
    tuples: list[tuple[Any, ...]] = []
    for row in rows:
        values = tuple(column[row] for column in arg_columns)
        if any(value is None for value in values):
            continue
        tuples.append(values)
    if spec.distinct:
        seen: dict[tuple[Any, ...], None] = {}
        for values in tuples:
            seen.setdefault(values, None)
        tuples = list(seen)
    if spec.func == "count":
        return len(tuples)
    if not tuples:
        return None
    values = [t[0] for t in tuples]
    try:
        if spec.func == "sum":
            return sum(values[1:], values[0])
        if spec.func == "min":
            return min(values)
        if spec.func == "max":
            return max(values)
        if spec.func == "avg":
            return sum(values[1:], values[0]) / len(values)
    except TypeError as error:
        raise SqlExecutionError(f"cannot aggregate {spec.func}: {error}") from None
    raise SqlExecutionError(f"unknown aggregate function {spec.func!r}")


_UNSET = object()


def _distinct_ranks(values: Sequence[Any]) -> list[int]:
    """ORDER BY ranks for a sequence of distinct values.

    NaN entries all rank 1 (after NULL's implicit 0, before every
    comparable value); comparable values are ranked by sorted order
    with ``==``-equal entries sharing a rank (stable sort then keeps
    their input order).  Raises on an incomparable mix.
    """
    ranks = [1] * len(values)
    comparable = [(v, i) for i, v in enumerate(values) if v == v]
    try:
        comparable.sort(key=lambda pair: pair[0])
    except TypeError as error:
        raise SqlExecutionError(f"cannot order by mixed types: {error}") from None
    rank = 1
    previous: Any = _UNSET
    for value, index in comparable:
        if previous is _UNSET or not (value == previous):
            rank += 1
        ranks[index] = rank
        previous = value
    return ranks


def _arith_value(op: str, left: Any, right: Any) -> Any:
    """Shared scalar arithmetic: NULL propagates, errors are uniform."""
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
    except TypeError:
        raise SqlExecutionError(f"cannot compute {left!r} {op} {right!r}") from None
    except ZeroDivisionError:
        raise SqlExecutionError(f"division by zero: {left!r} / {right!r}") from None
    raise SqlExecutionError(f"unknown arithmetic operator {op!r}")


def _peel_result_shape(plan: Plan) -> tuple[Limit | None, Project]:
    limit: Limit | None = None
    if isinstance(plan, Limit):
        limit = plan
        plan = plan.source
    if not isinstance(plan, Project):
        raise SqlExecutionError(
            f"plan root must be Project or Limit, got {type(plan).__name__}"
        )
    return limit, plan


def _slice_positions(
    positions: Sequence[int], limit: Limit | None
) -> Sequence[int]:
    if limit is None:
        return positions
    start = limit.offset
    if limit.limit is None:
        return positions[start:]
    return positions[start : start + limit.limit]


# ----------------------------------------------------------------------
# Columnar engine
# ----------------------------------------------------------------------
class _CFrame:
    """An ordered set of encoded columns with names and qualifiers."""

    __slots__ = ("names", "quals", "columns", "num_rows")

    def __init__(
        self,
        names: list[str],
        quals: list[str | None],
        columns: list[EncodedColumn],
        num_rows: int,
    ) -> None:
        self.names = names
        self.quals = quals
        self.columns = columns
        self.num_rows = num_rows

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        qualifier: str,
        subset: tuple[str, ...] | None = None,
    ) -> "_CFrame":
        names = _kept_names(relation.attribute_names, subset)
        columns = [relation.column(name) for name in names]
        return cls(names, [qualifier] * len(names), columns, relation.num_rows)

    def take(self, rows: Sequence[int]) -> "_CFrame":
        columns = [column.take(rows) for column in self.columns]
        return _CFrame(self.names, self.quals, columns, len(rows))

    def resolve(self, ref: ColumnRef) -> int:
        return _resolve_ref(self.names, self.quals, ref)


def _kept_names(names: Sequence[str], subset: tuple[str, ...] | None) -> list[str]:
    """A table's frame columns: ``subset`` in schema order (at least one
    column, which carries the row count), or all of them."""
    if subset is None:
        return list(names)
    return [name for name in names if name in subset] or list(names[:1])


class _FrameSchema:
    """Just enough schema for the IR mask evaluator's name probes."""

    __slots__ = ("_count",)

    def __init__(self, count: int) -> None:
        self._count = count

    def position(self, name: str) -> int:
        index = int(name)
        if not 0 <= index < self._count:
            raise UnknownAttributeError(name)
        return index


class _FrameRelation:
    """Adapter: a frame pretending to be a Relation for the IR evaluator.

    Column "names" are frame positions as strings — the executor
    resolves real names statically and compiles ``Col(str(position))``.
    """

    def __init__(self, frame: _CFrame) -> None:
        self._frame = frame
        self.schema = _FrameSchema(len(frame.columns))

    @property
    def num_rows(self) -> int:
        return self._frame.num_rows

    @property
    def attribute_names(self) -> list[str]:
        return [str(i) for i in range(len(self._frame.columns))]

    def column(self, name: str) -> EncodedColumn:
        return self._frame.columns[int(name)]


def _compact(column: EncodedColumn) -> EncodedColumn:
    """Re-encode so the dictionary is exactly the present values,
    first-seen — the invariant ORDER BY's rank tables rely on."""
    return column.take(range(len(column.codes)))


class _ColumnarEngine:
    def __init__(self, catalog: Catalog, scan_stats: "ScanStats | None" = None) -> None:
        self._catalog = catalog
        self._scan_stats = scan_stats

    def run(self, plan: Plan) -> ResultSet:
        limit, project = _peel_result_shape(plan)
        frame = self._frame(project.source)
        names, columns = self._project_columns(frame, project)
        backend = kernels.get_backend()
        if project.distinct:
            codes = [
                column.kernel_codes()
                if isinstance(column, EncodedColumn)
                else EncodedColumn.from_values(column).kernel_codes()
                for column in columns
            ]
            positions: Sequence[int] = list(backend.distinct_rows(codes))
        else:
            positions = range(frame.num_rows)
        positions = _slice_positions(positions, limit)
        out_rows = []
        decoded: list[list[Any]] = []
        for column in columns:
            if isinstance(column, EncodedColumn):
                gathered = backend.gather(column.kernel_codes(), list(positions))
                dictionary = column.dictionary
                decoded.append(
                    [None if code < 0 else dictionary[code] for code in gathered]
                )
            else:
                decoded.append([column[p] for p in positions])
        names_tuple = tuple(names)
        for i in range(len(positions)):
            out_rows.append(ResultRow((column[i] for column in decoded), names_tuple))
        return ResultSet(names_tuple, tuple(out_rows))

    # -- operators ------------------------------------------------------
    def _frame(self, plan: Plan) -> _CFrame:
        if isinstance(plan, Scan):
            return self._table(plan, stats=self._scan_stats)
        if isinstance(plan, Filter):
            if isinstance(plan.source, Scan):
                fused = self._fused_store_scan(plan.source, plan.predicate)
                if fused is not None:
                    return fused
            return self._filter(self._frame(plan.source), plan)
        if isinstance(plan, Join):
            return self._join(self._frame(plan.source), plan)
        if isinstance(plan, Aggregate):
            return self._aggregate(self._frame(plan.source), plan)
        if isinstance(plan, Sort):
            return self._sort(self._frame(plan.source), plan.keys)
        raise SqlExecutionError(f"unsupported plan node {type(plan).__name__}")

    def _table(
        self,
        node: Scan | Join,
        where: ir.Predicate | None = None,
        stats: "ScanStats | None" = None,
    ) -> _CFrame:
        """The frame of a scan's (or a join's right) table: a relation's
        columns, or a scan of an attached store with ``where`` pushed in."""
        source = self._catalog.table(node.table)
        if isinstance(source, Relation):
            return _CFrame.from_relation(source, node.binding, node.columns)
        from repro.storage.sqlbridge import scan_store

        names = _kept_names(source.schema.attribute_names, node.columns)
        try:
            relation = scan_store(source, where=where, columns=names, stats=stats)
        except (ir.ExpressionError, UnknownAttributeError) as error:
            raise SqlExecutionError(str(error)) from None
        return _CFrame.from_relation(relation, node.binding)

    def _fused_store_scan(self, scan: Scan, predicate: Expression) -> _CFrame | None:
        """``Filter(Scan(store))`` as one zone-skipping scan that
        evaluates the predicate once per surviving chunk — or ``None``
        for a relation or an ill-formed predicate (see _well_formed)."""
        source = self._catalog.table(scan.table)
        if isinstance(source, Relation):
            return None
        names = _kept_names(source.schema.attribute_names, scan.columns)
        quals = [scan.binding] * len(names)
        where = _compile(predicate, lambda ref: names[_resolve_ref(names, quals, ref)])
        if not _well_formed(where):
            return None
        return self._table(scan, where, self._scan_stats)

    def _filter(self, frame: _CFrame, node: Filter) -> _CFrame:
        predicate = _compile(node.predicate, lambda ref: str(frame.resolve(ref)))
        try:
            rows = ir.filter_rows(_FrameRelation(frame), predicate)
        except (ir.ExpressionError, UnknownAttributeError) as error:
            raise SqlExecutionError(str(error)) from None
        return frame.take(rows)

    def _join(self, frame: _CFrame, node: Join) -> _CFrame:
        right = self._table(node)
        backend = kernels.get_backend()
        left_codes = []
        right_codes = []
        for left_ref, right_ref in zip(node.left_keys, node.right_keys):
            left_col = frame.columns[frame.resolve(left_ref)]
            right_col = right.columns[right.resolve(right_ref)]
            # SQL ON-equality: NULL never matches (right NULLs leave the
            # shared code space entirely), NaN never matches (== policy).
            mapping = remap_dictionary(right_col, left_col, nan_matches=False)
            left_codes.append(left_col.kernel_codes())
            right_codes.append(
                backend.remap_codes(right_col.kernel_codes(), mapping, _JOIN_NULL)
            )
        if node.kind == "left":
            left_rows, right_rows = backend.left_join_index(left_codes, right_codes)
            right_columns = [
                _compact(
                    EncodedColumn(
                        list(backend.gather_padded(column.kernel_codes(), right_rows)),
                        list(column.dictionary),
                    )
                )
                for column in right.columns
            ]
        else:
            left_rows, right_rows = backend.hash_join_index(left_codes, right_codes)
            right_columns = [column.take(right_rows) for column in right.columns]
        left_columns = [column.take(left_rows) for column in frame.columns]
        return _CFrame(
            frame.names + right.names,
            frame.quals + right.quals,
            left_columns + right_columns,
            len(left_columns[0].codes) if left_columns else 0,
        )

    def _eval_values(self, frame: _CFrame, expression: Expression) -> list[Any]:
        """Evaluate a value expression over every frame row."""
        if isinstance(expression, ColumnRef):
            return frame.columns[frame.resolve(expression)].values()
        if isinstance(expression, Literal):
            return [expression.value] * frame.num_rows
        if isinstance(expression, Arith):
            left = self._eval_values(frame, expression.left)
            right = self._eval_values(frame, expression.right)
            op = expression.op
            return [_arith_value(op, l, r) for l, r in zip(left, right)]
        raise SqlExecutionError(f"cannot evaluate {expression!r} as a value")

    def _aggregate(self, frame: _CFrame, node: Aggregate) -> _CFrame:
        backend = kernels.get_backend()
        key_positions = [frame.resolve(key) for key in node.group_by]
        if key_positions:
            key_codes = [frame.columns[p].kernel_codes() for p in key_positions]
            groups = backend.group_rows(key_codes, list(range(frame.num_rows)))
        else:
            groups = [list(range(frame.num_rows))]
        arg_columns_per_spec = [
            [self._eval_values(frame, argument) for argument in spec.arguments]
            for spec in node.specs
        ]
        first_rows = [group[0] for group in groups] if key_positions else []
        columns = [frame.columns[p].take(first_rows) for p in key_positions]
        names = [frame.names[p] for p in key_positions]
        quals: list[str | None] = [frame.quals[p] for p in key_positions]
        for index, (spec, arg_columns) in enumerate(
            zip(node.specs, arg_columns_per_spec)
        ):
            values = [_fold_spec(spec, arg_columns, group) for group in groups]
            columns.append(EncodedColumn.from_values(values))
            names.append(f"__agg{index}")
            quals.append(None)
        return _CFrame(names, quals, columns, len(groups))

    def _sort(self, frame: _CFrame, keys: tuple[SortKey, ...]) -> _CFrame:
        backend = kernels.get_backend()
        rank_columns = []
        for key in keys:
            if isinstance(key.expression, ColumnRef):
                column = frame.columns[frame.resolve(key.expression)]
            else:
                column = EncodedColumn.from_values(
                    self._eval_values(frame, key.expression)
                )
            ranks = _distinct_ranks(column.dictionary)
            sign = -1 if key.descending else 1
            rank_columns.append(
                [sign * (0 if code < 0 else ranks[code]) for code in column.codes]
            )
        order = backend.sort_index(rank_columns)
        return frame.take(list(order))

    def _project_columns(
        self, frame: _CFrame, node: Project
    ) -> tuple[list[str], list[Any]]:
        """Output names plus one column each — an EncodedColumn for plain
        references, a value list for computed expressions."""
        if node.names == ("*",):
            return list(frame.names), list(frame.columns)
        names = list(node.names)
        columns: list[Any] = []
        for expression in node.expressions:
            if isinstance(expression, ColumnRef):
                columns.append(frame.columns[frame.resolve(expression)])
            else:
                columns.append(self._eval_values(frame, expression))
        return names, columns
