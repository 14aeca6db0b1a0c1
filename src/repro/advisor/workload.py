"""Workload-driven advisor evaluation: measured before/after times.

The advisor (:func:`repro.advisor.recommend_indexes`) derives index
recommendations from *exact* FDs.  This module closes the loop the
paper's Section 6 narrative implies: generate a query stream (see
:mod:`repro.datagen.queries`), run every query once against the plain
executor and once against the advisor-built indexes, and report the
measured wall-clock times side by side.  ``benchmarks/bench_sql.py``
records the totals into ``BENCH_results.json``.

Single-table queries route through
:func:`repro.advisor.rewrite.execute_indexed`, which picks a covering
index for the WHERE equality bindings when one exists and falls back
to a scan otherwise (results are verified identical to the baseline
either way).  Join queries have no single-relation index path yet;
they are timed against the plain executor on both sides so the
aggregate totals stay comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.datagen.queries import GeneratedQuery
from repro.relational.catalog import Catalog
from repro.sql.executor import execute
from repro.sql.parser import parse

from .advisor import recommend_indexes
from .index import IndexedRelation
from .rewrite import execute_indexed

__all__ = ["QueryTiming", "WorkloadReport", "evaluate_workload"]


@dataclass(frozen=True)
class QueryTiming:
    """Measured before/after times for one workload query."""

    name: str
    kind: str
    table: str
    sql: str
    baseline_seconds: float
    advised_seconds: float
    access_path: str  # "index" | "scan" | "join"
    rows: int

    @property
    def speedup(self) -> float:
        """Baseline time over advised time (>1 means the index helped)."""
        if self.advised_seconds <= 0.0:
            return float("inf")
        return self.baseline_seconds / self.advised_seconds


@dataclass(frozen=True)
class WorkloadReport:
    """Aggregate of an advisor evaluation over one query stream."""

    timings: tuple[QueryTiming, ...]
    indexes_built: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def baseline_seconds(self) -> float:
        return sum(t.baseline_seconds for t in self.timings)

    @property
    def advised_seconds(self) -> float:
        return sum(t.advised_seconds for t in self.timings)

    @property
    def speedup(self) -> float:
        if self.advised_seconds <= 0.0:
            return float("inf")
        return self.baseline_seconds / self.advised_seconds

    @property
    def indexed_queries(self) -> int:
        return sum(1 for t in self.timings if t.access_path == "index")

    def __str__(self) -> str:
        lines = [
            "Workload evaluation "
            f"({len(self.timings)} queries, {self.indexed_queries} via index):"
        ]
        for t in self.timings:
            lines.append(
                f"  {t.name:<18} {t.access_path:<5} "
                f"baseline {t.baseline_seconds * 1e3:8.3f}ms  "
                f"advised {t.advised_seconds * 1e3:8.3f}ms  "
                f"({t.speedup:.2f}x)"
            )
        lines.append(
            f"  total: baseline {self.baseline_seconds * 1e3:.3f}ms, "
            f"advised {self.advised_seconds * 1e3:.3f}ms "
            f"({self.speedup:.2f}x)"
        )
        return "\n".join(lines)


def evaluate_workload(
    catalog: Catalog,
    queries: list[GeneratedQuery],
    repeats: int = 1,
) -> WorkloadReport:
    """Time every query with and without advisor-built indexes.

    Indexes are built once per referenced table from the catalog's
    declared FDs (build time is excluded — the advisor amortizes it
    over the stream).  Every advised result is asserted equal to the
    baseline result before its time is recorded.  ``repeats`` takes the
    best of N runs per side to damp scheduler noise.
    """
    indexed_cache: dict[str, IndexedRelation] = {}
    indexes_built: list[tuple[str, tuple[str, ...]]] = []

    def indexed_for(table: str) -> IndexedRelation:
        if table not in indexed_cache:
            relation = catalog.relation(table)
            report = recommend_indexes(relation, catalog.fds(table))
            built = report.build(relation)
            indexed_cache[table] = built
            for index in built.indexes:
                indexes_built.append((table, index.attributes))
        return indexed_cache[table]

    timings: list[QueryTiming] = []
    for query in queries:
        baseline = None
        baseline_s = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = execute(catalog, query.sql)
            baseline_s = min(baseline_s, time.perf_counter() - start)
            baseline = result

        has_join = bool(parse(query.sql).joins)
        advised_s = float("inf")
        if has_join:
            access = "join"
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                advised = execute(catalog, query.sql)
                advised_s = min(advised_s, time.perf_counter() - start)
        else:
            indexed = indexed_for(query.table)
            access = "scan"
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                advised, plan = execute_indexed(indexed, query.sql)
                advised_s = min(advised_s, time.perf_counter() - start)
                access = plan.access_path
        if advised.columns != baseline.columns or advised.rows != baseline.rows:
            raise AssertionError(
                f"advised result diverged from baseline for {query.name}"
            )
        timings.append(
            QueryTiming(
                name=query.name,
                kind=query.kind,
                table=query.table,
                sql=query.sql,
                baseline_seconds=baseline_s,
                advised_seconds=advised_s,
                access_path=access,
                rows=len(baseline.rows),
            )
        )
    return WorkloadReport(tuple(timings), tuple(indexes_built))
