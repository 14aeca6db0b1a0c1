"""Rule-plus-cost optimizer over the frozen logical plans (PR 10).

:func:`optimize_plan` rewrites a canonical :func:`~repro.sql.plan.plan_query`
plan into an equivalent, cheaper one:

* **constant folding** — ``Arith(Literal, Literal)`` subtrees that
  evaluate without error collapse to their value (erroring ones are
  left in place: ``5/0`` over an empty frame must stay silent, over a
  non-empty one must raise the executor's exact message);
* **predicate pushdown** — WHERE conjuncts that (a) provably cannot
  raise and (b) resolve uniquely to scan-table columns move below the
  joins as a ``Filter`` directly above the ``Scan``;
* **projection pruning** — ``Scan.columns`` / ``Join.columns`` restrict
  every frame to the statement-referenced attributes, so unreferenced
  columns are never decoded or gathered;
* **equi-join reordering** — consecutive INNER joins whose right keys
  are *provably unique* (exact dictionary cardinality == row count, so
  each join is an order-preserving filter) are re-ranked by estimated
  selectivity ``|T| / max(ndv(left key), |T|)`` from
  :mod:`repro.sql.stats`.

Everything is guarded so the rewrite is *observably identical* to the
original plan — results, row order, and error messages — which the
hypothesis equivalence suite pins by running the unoptimized plan
through :func:`~repro.sql.executor.execute_plan`:

* only conjuncts **before the first may-raise conjunct** are pushed
  (pushing past one could filter away the row it would have raised on);
* safety is decided statically from declared attribute types — order
  comparisons only between same-family operands, arithmetic only over
  numerics, division never;
* conjuncts whose references don't resolve uniquely in the full frame
  stay residual, so unknown/ambiguous-column errors fire at the same
  bind point with the same message;
* join reordering additionally requires pairwise-distinct bindings and
  permutation-invariant left-key resolution, and never applies under
  ``SELECT *`` (frame column order is user-visible there).

Plans that don't have the canonical shape are returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.relational.types import AttributeType

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
)
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
    _expr_sql,
    _spec_sql,
)
from .stats import StatisticsProvider, TableStats

__all__ = ["optimize_plan", "render_plan"]


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------
def _fold(expression: Expression) -> Expression:
    """Collapse literal-only arithmetic, preserving error behavior.

    Mirrors the executors' ``_arith_value`` exactly (NULL propagates;
    TypeError / ZeroDivisionError abort the fold so the runtime raise —
    or the empty-frame non-raise — is unchanged).
    """
    if isinstance(expression, Arith):
        left = _fold(expression.left)
        right = _fold(expression.right)
        if isinstance(left, Literal) and isinstance(right, Literal):
            if left.value is None or right.value is None:
                return Literal(None)
            op = expression.op
            try:
                if op == "+":
                    return Literal(left.value + right.value)
                if op == "-":
                    return Literal(left.value - right.value)
                if op == "*":
                    return Literal(left.value * right.value)
                if op == "/":
                    return Literal(left.value / right.value)
            except (TypeError, ZeroDivisionError):
                pass
        return Arith(expression.op, left, right)
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op, _fold(expression.left), _fold(expression.right)
        )
    if isinstance(expression, InList):
        return InList(_fold(expression.operand), expression.values, expression.negated)
    if isinstance(expression, IsNull):
        return IsNull(_fold(expression.operand), expression.negated)
    if isinstance(expression, Not):
        return Not(_fold(expression.operand))
    if isinstance(expression, And):
        return And(_fold(expression.left), _fold(expression.right))
    if isinstance(expression, Or):
        return Or(_fold(expression.left), _fold(expression.right))
    return expression


# ----------------------------------------------------------------------
# Static safety analysis
# ----------------------------------------------------------------------
_NUM = "num"
_STR = "str"
_NULL = "null"

TypeOf = Callable[[ColumnRef], AttributeType | None]


def _operand_info(expression: Expression, type_of: TypeOf) -> tuple[bool, str | None]:
    """``(never_raises, static type family)`` for a value expression.

    Families: ``"num"`` (ints, floats, bools — mutually comparable in
    Python), ``"str"``, ``"null"`` (the NULL literal: comparisons with
    it short-circuit to false before any type check).  ``(False, None)``
    means "can't prove anything" — callers must treat it as may-raise.
    """
    if isinstance(expression, Literal):
        value = expression.value
        if value is None:
            return True, _NULL
        if isinstance(value, bool) or isinstance(value, (int, float)):
            return True, _NUM
        if isinstance(value, str):
            return True, _STR
        return False, None
    if isinstance(expression, ColumnRef):
        attr_type = type_of(expression)
        if attr_type in (
            AttributeType.INTEGER,
            AttributeType.FLOAT,
            AttributeType.BOOLEAN,
        ):
            return True, _NUM
        if attr_type is AttributeType.STRING:
            return True, _STR
        return False, None
    if isinstance(expression, Arith):
        left_safe, left_type = _operand_info(expression.left, type_of)
        right_safe, right_type = _operand_info(expression.right, type_of)
        if not (left_safe and right_safe):
            return False, None
        # '/' can ZeroDivision; mixed families TypeError.  NULL operands
        # propagate before the operator ever runs, so they are fine.
        if expression.op in ("+", "-", "*") and {left_type, right_type} <= {
            _NUM,
            _NULL,
        }:
            return True, _NUM if _NUM in (left_type, right_type) else _NULL
        return False, None
    return False, None


def _conjunct_safe(expression: Expression, type_of: TypeOf) -> bool:
    """Whether evaluating this predicate can *never* raise."""
    if isinstance(expression, Comparison):
        left_safe, left_type = _operand_info(expression.left, type_of)
        right_safe, right_type = _operand_info(expression.right, type_of)
        if not (left_safe and right_safe):
            return False
        if expression.op in ("=", "<>"):
            return True  # Python ==/!= never raise across these families
        return _NULL in (left_type, right_type) or left_type == right_type
    if isinstance(expression, (InList, IsNull)):
        safe, _ = _operand_info(expression.operand, type_of)
        return safe
    if isinstance(expression, Not):
        return _conjunct_safe(expression.operand, type_of)
    if isinstance(expression, (And, Or)):
        return _conjunct_safe(expression.left, type_of) and _conjunct_safe(
            expression.right, type_of
        )
    return False


# ----------------------------------------------------------------------
# Canonical-shape peeling
# ----------------------------------------------------------------------
@dataclass
class _Shape:
    limit: Limit | None
    project: Project
    sort: Sort | None
    having: Filter | None
    aggregate: Aggregate | None
    conjuncts: list[Expression]  # WHERE, in evaluation order
    n_pushed: int  # how many leading conjuncts came from spine filters
    joins: list[Join]
    scan: Scan


def _conjuncts(expression: Expression) -> list[Expression]:
    if isinstance(expression, And):
        return _conjuncts(expression.left) + _conjuncts(expression.right)
    return [expression]


def _peel(plan: Plan) -> _Shape | None:
    node = plan
    limit = node if isinstance(node, Limit) else None
    if limit is not None:
        node = node.source
    if not isinstance(node, Project):
        return None
    project = node
    node = node.source
    sort = None
    if isinstance(node, Sort):
        sort = node
        node = node.source
    having = None
    if isinstance(node, Filter) and isinstance(node.source, Aggregate):
        having = node
        node = node.source
    aggregate = None
    if isinstance(node, Aggregate):
        aggregate = node
        node = node.source
    residual: list[Expression] = []
    if isinstance(node, Filter):
        residual = _conjuncts(node.predicate)
        node = node.source
    joins: list[Join] = []
    while isinstance(node, Join):
        joins.append(node)
        node = node.source
    joins.reverse()
    # A previous optimize pass leaves pushed filters directly above the
    # scan; re-lift them (innermost evaluates first) so re-optimizing is
    # idempotent.  Any other interleaving is non-canonical: bail.
    pushed: list[Expression] = []
    while isinstance(node, Filter):
        pushed = _conjuncts(node.predicate) + pushed
        node = node.source
    if not isinstance(node, Scan):
        return None
    if pushed and not joins:
        # Filter directly over Scan with no joins is just the WHERE.
        residual = pushed + residual
        pushed = []
    return _Shape(
        limit=limit,
        project=project,
        sort=sort,
        having=having,
        aggregate=aggregate,
        conjuncts=pushed + residual,
        n_pushed=len(pushed),
        joins=joins,
        scan=node,
    )


# ----------------------------------------------------------------------
# Frame simulation (the executors' static name resolution, non-raising)
# ----------------------------------------------------------------------
@dataclass
class _FrameSim:
    names: list[str] = field(default_factory=list)
    quals: list[str | None] = field(default_factory=list)
    owners: list[int] = field(default_factory=list)  # 0 = scan, i = joins[i-1]
    types: list[AttributeType] = field(default_factory=list)

    def add_table(self, owner: int, binding: str, stats: TableStats) -> None:
        for attr in stats.schema.attributes:
            self.names.append(attr.name)
            self.quals.append(binding)
            self.owners.append(owner)
            self.types.append(attr.type)

    def resolve(self, ref: ColumnRef) -> int | None:
        """The frame position, or ``None`` on unknown/ambiguous."""
        matches = [
            i
            for i, (name, qual) in enumerate(zip(self.names, self.quals))
            if name == ref.name and (ref.table is None or qual == ref.table)
        ]
        return matches[0] if len(matches) == 1 else None

    def type_of(self, ref: ColumnRef) -> AttributeType | None:
        position = self.resolve(ref)
        return None if position is None else self.types[position]


def _refs(expression: Expression, out: list[ColumnRef]) -> None:
    if isinstance(expression, ColumnRef):
        out.append(expression)
    elif isinstance(expression, (Arith, Comparison, And, Or)):
        _refs(expression.left, out)
        _refs(expression.right, out)
    elif isinstance(expression, (InList, IsNull, Not)):
        _refs(expression.operand, out)


def _collect_names(expression: Expression | None, out: set[str]) -> bool:
    """Referenced column names; ``False`` when ``*`` demands everything."""
    if expression is None:
        return True
    refs: list[ColumnRef] = []
    _refs(expression, refs)
    for ref in refs:
        if ref.name == "*":
            return False
        out.add(ref.name)
    return True


# ----------------------------------------------------------------------
# The optimizer
# ----------------------------------------------------------------------
def optimize_plan(
    plan: Plan, stats: StatisticsProvider | None = None
) -> Plan:
    """An equivalent plan, rewritten for speed.

    ``stats`` supplies schemas and cardinalities; without it (or for
    tables it doesn't know) the statistics-dependent rules degrade to
    no-ops and only constant folding applies.  Non-canonical plan
    shapes are returned unchanged.
    """
    shape = _peel(plan)
    if shape is None:
        return plan

    # -- constant folding everywhere ----------------------------------
    conjuncts = [_fold(c) for c in shape.conjuncts]
    having_pred = (
        _fold(shape.having.predicate) if shape.having is not None else None
    )
    expressions = tuple(_fold(e) for e in shape.project.expressions)
    sort_keys = (
        tuple(
            SortKey(_fold(key.expression), key.descending)
            for key in shape.sort.keys
        )
        if shape.sort is not None
        else None
    )
    specs = (
        tuple(
            AggregateSpec(
                spec.func,
                tuple(_fold(a) for a in spec.arguments),
                spec.distinct,
            )
            for spec in shape.aggregate.specs
        )
        if shape.aggregate is not None
        else None
    )

    # -- gather table stats -------------------------------------------
    provider = stats if stats is not None else StatisticsProvider()
    scan_stats = provider.table_stats(shape.scan.table)
    join_stats = [provider.table_stats(join.table) for join in shape.joins]
    frame: _FrameSim | None = None
    if scan_stats is not None and all(s is not None for s in join_stats):
        frame = _FrameSim()
        frame.add_table(0, shape.scan.binding, scan_stats)
        for index, (join, table_stats) in enumerate(
            zip(shape.joins, join_stats)
        ):
            frame.add_table(index + 1, join.binding, table_stats)

    # -- predicate pushdown -------------------------------------------
    pushed: list[Expression] = []
    residual: list[Expression] = []
    pushed_indices: set[int] = set()
    if frame is not None and shape.joins:
        blocked = False
        for index, conjunct in enumerate(conjuncts):
            if blocked or not _pushable(conjunct, frame):
                residual.append(conjunct)
                # Only the prefix before the first may-raise conjunct
                # may move: pushing past one would filter away the very
                # row it would have raised on.
                if not _conjunct_safe(conjunct, frame.type_of):
                    blocked = True
            else:
                pushed.append(conjunct)
                pushed_indices.add(index)
    else:
        residual = list(conjuncts)
    if not pushed_indices.issuperset(range(shape.n_pushed)):
        # Re-peeled spine filters that no longer qualify (different
        # stats, hand-built plan): lifting them would move their
        # evaluation point.  Leave the plan exactly as it was.
        return plan

    # -- projection pruning -------------------------------------------
    bindings = [shape.scan.binding] + [join.binding for join in shape.joins]
    prune: dict[str, tuple[str, ...]] = {}
    if frame is not None and len(set(bindings)) == len(bindings):
        prune = _pruned_columns(
            shape,
            expressions,
            sort_keys,
            having_pred,
            conjuncts,
            specs,
            scan_stats,
            join_stats,
        )

    # -- join reordering ----------------------------------------------
    joins = list(shape.joins)
    if frame is not None and scan_stats is not None:
        joins = _reorder_joins(shape, joins, join_stats, scan_stats)

    # -- rebuild -------------------------------------------------------
    node: Plan = Scan(
        shape.scan.table, shape.scan.alias, prune.get(shape.scan.binding)
    )
    if pushed:
        node = Filter(node, _and_all(pushed))
    for join in joins:
        node = Join(
            node,
            join.kind,
            join.table,
            join.alias,
            join.left_keys,
            join.right_keys,
            prune.get(join.binding),
        )
    if residual:
        node = Filter(node, _and_all(residual))
    if shape.aggregate is not None:
        assert specs is not None
        node = Aggregate(node, shape.aggregate.group_by, specs)
    if having_pred is not None:
        node = Filter(node, having_pred)
    if sort_keys is not None:
        node = Sort(node, sort_keys)
    node = Project(
        node, expressions, shape.project.names, shape.project.distinct
    )
    if shape.limit is not None:
        node = Limit(node, shape.limit.limit, shape.limit.offset)
    return node


def _and_all(conjuncts: list[Expression]) -> Expression:
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = And(combined, conjunct)
    return combined


def _pushable(conjunct: Expression, frame: _FrameSim) -> bool:
    """Can this conjunct move below the joins?

    Every reference must resolve uniquely in the *full* frame (so no
    unknown/ambiguous error is suppressed or introduced) and land on a
    scan-table column, and evaluation must be provably raise-free.
    """
    refs: list[ColumnRef] = []
    _refs(conjunct, refs)
    for ref in refs:
        position = frame.resolve(ref)
        if position is None or frame.owners[position] != 0:
            return False
    return _conjunct_safe(conjunct, frame.type_of)


def _pruned_columns(
    shape: _Shape,
    expressions: tuple[Expression, ...],
    sort_keys: tuple[SortKey, ...] | None,
    having_pred: Expression | None,
    conjuncts: list[Expression],
    specs: tuple[AggregateSpec, ...] | None,
    scan_stats: TableStats | None,
    join_stats: list[TableStats | None],
) -> dict[str, tuple[str, ...]]:
    """Per-binding kept-column tuples, or ``{}`` when pruning is off.

    Collects every referenced *name* (qualifiers ignored — over-keeping
    can never change resolution, under-keeping could) across the whole
    statement, then intersects with each table's schema in schema
    order.  ``SELECT *`` disables pruning entirely.
    """
    if shape.project.names == ("*",):
        return {}
    referenced: set[str] = set()
    for expression in expressions:
        if not _collect_names(expression, referenced):
            return {}
    for conjunct in conjuncts:
        if not _collect_names(conjunct, referenced):
            return {}
    if not _collect_names(having_pred, referenced):
        return {}
    if sort_keys is not None:
        for key in sort_keys:
            if not _collect_names(key.expression, referenced):
                return {}
    if shape.aggregate is not None:
        for key in shape.aggregate.group_by:
            referenced.add(key.name)
    if specs is not None:
        for spec in specs:
            for argument in spec.arguments:
                if not _collect_names(argument, referenced):
                    return {}
    for join in shape.joins:
        for ref in join.left_keys + join.right_keys:
            referenced.add(ref.name)
    tables = [(shape.scan.binding, scan_stats)] + [
        (join.binding, table_stats)
        for join, table_stats in zip(shape.joins, join_stats)
    ]
    out: dict[str, tuple[str, ...]] = {}
    for binding, table_stats in tables:
        if table_stats is None:
            continue
        schema_names = table_stats.schema.attribute_names
        kept = tuple(name for name in schema_names if name in referenced)
        if not kept:
            # A frame still needs a row count (SELECT COUNT(*) ...).
            kept = schema_names[:1]
        if len(kept) < len(schema_names):
            out[binding] = kept
    return out


def _reorder_joins(
    shape: _Shape,
    joins: list[Join],
    join_stats: list[TableStats | None],
    scan_stats: TableStats,
) -> list[Join]:
    """Selectivity-ranked inner-join order, when provably safe.

    Requirements (each preserves byte-identical results *and* errors):

    * every join INNER with a single, provably-unique right key — each
      is then an order-preserving filter of the left spine, so inner
      joins commute;
    * ``SELECT *`` absent (output column order would change);
    * pairwise-distinct bindings and permutation-invariant left-key
      resolution (qualified with the scan binding, or a name that only
      the scan table has), so static resolution can't flip between
      unique/ambiguous/unknown under any order.
    """
    if len(joins) < 2 or shape.project.names == ("*",):
        return joins
    bindings = [shape.scan.binding] + [join.binding for join in joins]
    if len(set(bindings)) != len(bindings):
        return joins
    scan_names = set(scan_stats.schema.attribute_names)
    join_name_sets = []
    for table_stats in join_stats:
        assert table_stats is not None
        join_name_sets.append(set(table_stats.schema.attribute_names))
    ranked: list[tuple[float, int, Join]] = []
    for index, (join, table_stats) in enumerate(zip(joins, join_stats)):
        assert table_stats is not None
        if join.kind != "inner" or len(join.left_keys) != 1:
            return joins
        left_key = join.left_keys[0]
        right_key = join.right_keys[0]
        if not table_stats.is_unique_key(right_key.name):
            return joins
        if left_key.table is not None:
            if left_key.table != shape.scan.binding:
                return joins
        elif any(left_key.name in names for names in join_name_sets):
            return joins
        if left_key.name not in scan_names:
            return joins
        key_stats = scan_stats.column(left_key.name)
        if key_stats is None:
            return joins
        distinct = max(key_stats.distinct, 1.0)
        selectivity = table_stats.num_rows / max(distinct, table_stats.num_rows, 1.0)
        ranked.append((selectivity, index, join))
    ranked.sort(key=lambda entry: (entry[0], entry[1]))  # stable: ties keep order
    return [join for _, _, join in ranked]


# ----------------------------------------------------------------------
# EXPLAIN rendering
# ----------------------------------------------------------------------
def _expr_text(expression: Expression) -> str:
    try:
        return _expr_sql(expression, ())
    except Exception:  # unrepresentable literal — EXPLAIN must not die
        return repr(expression)


def render_plan(plan: Plan, indent: int = 0) -> str:
    """A human-readable operator tree (the CLI's ``--explain`` body)."""
    pad = "  " * indent
    if isinstance(plan, Limit):
        line = f"{pad}Limit(limit={plan.limit}, offset={plan.offset})"
        return line + "\n" + render_plan(plan.source, indent + 1)
    if isinstance(plan, Project):
        if plan.names == ("*",):
            detail = "*"
        else:
            detail = ", ".join(
                f"{_expr_text(e)} AS {n}"
                for e, n in zip(plan.expressions, plan.names)
            )
        distinct = "DISTINCT " if plan.distinct else ""
        line = f"{pad}Project({distinct}{detail})"
        return line + "\n" + render_plan(plan.source, indent + 1)
    if isinstance(plan, Sort):
        keys = ", ".join(
            _expr_text(k.expression) + (" DESC" if k.descending else "")
            for k in plan.keys
        )
        return f"{pad}Sort({keys})\n" + render_plan(plan.source, indent + 1)
    if isinstance(plan, Filter):
        line = f"{pad}Filter({_expr_text(plan.predicate)})"
        return line + "\n" + render_plan(plan.source, indent + 1)
    if isinstance(plan, Aggregate):
        group = ", ".join(key.qualified for key in plan.group_by)
        rendered_specs = []
        for spec in plan.specs:
            try:
                rendered_specs.append(_spec_sql(spec))
            except Exception:
                rendered_specs.append(repr(spec))
        line = f"{pad}Aggregate(group_by=[{group}], specs=[{', '.join(rendered_specs)}])"
        return line + "\n" + render_plan(plan.source, indent + 1)
    if isinstance(plan, Join):
        alias = f" AS {plan.alias}" if plan.alias else ""
        on = ", ".join(
            f"{l.qualified} = {r.qualified}"
            for l, r in zip(plan.left_keys, plan.right_keys)
        )
        columns = (
            f", columns=[{', '.join(plan.columns)}]"
            if plan.columns is not None
            else ""
        )
        line = f"{pad}Join({plan.kind}, {plan.table}{alias}, on=[{on}]{columns})"
        return line + "\n" + render_plan(plan.source, indent + 1)
    if isinstance(plan, Scan):
        alias = f" AS {plan.alias}" if plan.alias else ""
        columns = (
            f", columns=[{', '.join(plan.columns)}]"
            if plan.columns is not None
            else ""
        )
        return f"{pad}Scan({plan.table}{alias}{columns})"
    return f"{pad}{type(plan).__name__}(...)"
