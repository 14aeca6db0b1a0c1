"""Mini SQL layer (system S2 in DESIGN.md).

A three-stage pipeline — :func:`parse` produces an AST,
:func:`~repro.sql.plan.plan_query` normalises it into a logical plan
(Scan / Join / Filter / Aggregate / Sort / Project / Limit), and the
executor compiles each operator onto the columnar kernels.  The
grammar covers the query surface the paper's prototype uses —
``COUNT(DISTINCT …)`` measure queries — plus joins, GROUP BY / HAVING,
ORDER BY and LIMIT/OFFSET for workload experiments.  :func:`connect` /
:class:`Database` is the user-facing facade; :class:`SqlCountBackend`
computes FD measures through literal SQL text.
"""

from .ast import (
    AggregateCall,
    And,
    Arith,
    ColumnRef,
    Comparison,
    CountDistinct,
    CountStar,
    InList,
    IsNull,
    JoinClause,
    Literal,
    Not,
    Or,
    OrderItem,
    SelectItem,
    SelectQuery,
)
from .backend import SqlCountBackend
from .database import Database, connect
from .errors import PlanError, SqlExecutionError
from .executor import (
    ResultRow,
    ResultSet,
    execute,
    execute_on_relation,
    execute_plan,
)
from .optimize import optimize_plan, render_plan
from .parser import parse
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
    to_sql,
)
from .stats import (
    ColumnStats,
    StatisticsProvider,
    TableStats,
    relation_stats,
    store_stats,
)
from .tokens import SqlSyntaxError, Token, TokenType, tokenize

__all__ = [
    "Aggregate",
    "AggregateCall",
    "AggregateSpec",
    "And",
    "Arith",
    "ColumnRef",
    "ColumnStats",
    "Comparison",
    "CountDistinct",
    "CountStar",
    "Database",
    "Filter",
    "InList",
    "IsNull",
    "Join",
    "JoinClause",
    "Limit",
    "Literal",
    "Not",
    "Or",
    "OrderItem",
    "Plan",
    "PlanError",
    "Project",
    "ResultRow",
    "ResultSet",
    "Scan",
    "SelectItem",
    "SelectQuery",
    "Sort",
    "SortKey",
    "SqlCountBackend",
    "SqlExecutionError",
    "SqlSyntaxError",
    "StatisticsProvider",
    "TableStats",
    "Token",
    "TokenType",
    "connect",
    "execute",
    "execute_on_relation",
    "execute_plan",
    "optimize_plan",
    "parse",
    "plan_query",
    "relation_stats",
    "render_plan",
    "store_stats",
    "to_sql",
    "tokenize",
]
