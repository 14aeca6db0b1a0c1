"""Index-aware query execution: the §6.3 claim measured end to end.

:func:`execute_indexed` runs the same mini-SQL dialect as
:func:`repro.sql.executor.execute_on_relation` but first tries an
*index access path*: when the WHERE clause is a conjunction of equality
comparisons and an attached index covers a subset of the compared
attributes, the executor probes the index and post-filters the bucket
instead of scanning the relation.  The returned :class:`QueryPlan`
records which path ran, so benches and tests can assert the rewrite
actually fired.

:func:`fetch_consequent` packages the FD-specific shortcut the paper
highlights: given an exact FD ``X → Y`` and an index on ``X``, the ``Y``
value of any ``X`` combination is one probe away; when the FD is
invertible, :func:`fetch_antecedent` answers the *reverse* question
through the consequent index — the "vice-versa" of §6.3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.fd.fd import FunctionalDependency
from repro.fd.measures import assess
from repro.relational.errors import ReproError
from repro.sql.ast import And, ColumnRef, Comparison, Literal, SelectQuery
from repro.sql.executor import ResultSet, execute_on_relation
from repro.sql.parser import parse

from .index import IndexedRelation

__all__ = [
    "AccessPath",
    "QueryPlan",
    "execute_indexed",
    "fetch_consequent",
    "fetch_antecedent",
    "InvertibilityError",
]


class InvertibilityError(ReproError):
    """A reverse lookup was requested through a non-invertible FD."""


@dataclass(frozen=True)
class QueryPlan:
    """How one query was answered."""

    access_path: str            # "index" or "scan"
    index_attributes: tuple[str, ...] | None
    rows_examined: int
    elapsed_seconds: float


class AccessPath:
    """Result of planning: the rows to consider, before residual filters."""

    __slots__ = ("rows", "index_attributes")

    def __init__(self, rows: list[int] | None, index_attributes: tuple[str, ...] | None):
        self.rows = rows
        self.index_attributes = index_attributes


def _equality_bindings(expr) -> dict[str, Any] | None:
    """``{attribute: constant}`` if ``expr`` is a conjunction of ``col = lit``.

    Any other shape (OR, negation, non-equality, column-to-column)
    returns ``None`` and the caller falls back to a scan.
    """
    if isinstance(expr, Comparison):
        if expr.op != "=":
            return None
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            return {expr.left.name: expr.right.value}
        if isinstance(expr.left, Literal) and isinstance(expr.right, ColumnRef):
            return {expr.right.name: expr.left.value}
        return None
    if isinstance(expr, And):
        left = _equality_bindings(expr.left)
        right = _equality_bindings(expr.right)
        if left is None or right is None:
            return None
        for name, value in right.items():
            if name in left and left[name] != value:
                # Contradictory equalities: empty result, still indexable
                # via either side; keep the left binding and let the
                # residual filter reject everything.
                continue
            left[name] = value
        return left
    return None


def plan_access(indexed: IndexedRelation, query: SelectQuery) -> AccessPath:
    """Choose rows via the best covering index, or ``None`` for a scan."""
    if query.where is None:
        return AccessPath(None, None)
    bindings = _equality_bindings(query.where)
    if not bindings:
        return AccessPath(None, None)
    index = indexed.covering_index(list(bindings))
    if index is None:
        return AccessPath(None, None)
    values = tuple(bindings[name] for name in index.attributes)
    return AccessPath(index.lookup(*values), index.attributes)


def execute_indexed(
    indexed: IndexedRelation, sql: str
) -> tuple[ResultSet, QueryPlan]:
    """Execute ``sql`` with index access when possible.

    The residual WHERE clause is always re-applied on the candidate
    rows, so partial index coverage stays correct.
    """
    query = parse(sql)
    start = time.perf_counter()
    access = plan_access(indexed, query)
    relation = indexed.relation
    if access.rows is None:
        result = execute_on_relation(relation, sql)
        plan = QueryPlan(
            "scan", None, relation.num_rows, time.perf_counter() - start
        )
        return result, plan
    candidate = relation.take(access.rows)
    result = execute_on_relation(candidate, sql)
    plan = QueryPlan(
        "index",
        access.index_attributes,
        len(access.rows),
        time.perf_counter() - start,
    )
    return result, plan


def fetch_consequent(
    indexed: IndexedRelation,
    fd: FunctionalDependency,
    *antecedent_values: Any,
) -> Any:
    """The unique ``Y`` value for one ``X`` combination, via the X index.

    Requires ``fd`` exact on the instance and an index on its
    antecedent; returns ``None`` when no tuple matches.
    """
    assessment = assess(indexed.relation, fd)
    if not assessment.is_exact:
        raise InvertibilityError(
            f"{fd} is violated (c={assessment.confidence:.4g}); "
            "only exact FDs support index fetches"
        )
    index = indexed.index_on(fd.antecedent)
    if index is None:
        raise InvertibilityError(f"no index on the antecedent of {fd}")
    rows = index.lookup(*antecedent_values)
    if not rows:
        return None
    values = [indexed.relation.row(rows[0])]
    position = [indexed.relation.attribute_names.index(a) for a in fd.consequent]
    picked = tuple(values[0][p] for p in position)
    return picked[0] if len(picked) == 1 else picked


def fetch_antecedent(
    indexed: IndexedRelation,
    fd: FunctionalDependency,
    *consequent_values: Any,
) -> tuple[Any, ...] | None:
    """The unique ``X`` combination for one ``Y`` value (reverse lookup).

    Only meaningful for invertible FDs (goodness 0): then the
    X-class ↔ Y-class correspondence is a bijection and the answer is
    unique.  Raises :class:`InvertibilityError` otherwise.
    """
    assessment = assess(indexed.relation, fd)
    if not assessment.is_exact:
        raise InvertibilityError(
            f"{fd} is violated (c={assessment.confidence:.4g})"
        )
    if assessment.goodness != 0:
        raise InvertibilityError(
            f"{fd} is not invertible (g={assessment.goodness}); "
            "the reverse lookup is ambiguous"
        )
    index = indexed.index_on(fd.consequent)
    if index is None:
        raise InvertibilityError(f"no index on the consequent of {fd}")
    rows = index.lookup(*consequent_values)
    if not rows:
        return None
    row = indexed.relation.row(rows[0])
    positions = [indexed.relation.attribute_names.index(a) for a in fd.antecedent]
    return tuple(row[p] for p in positions)
