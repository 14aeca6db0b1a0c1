"""The parse → plan → execute SQL surface on a generated TPC-H
workload (PR 7).

**Advisor evaluation** over a seeded query stream
(:func:`repro.datagen.queries.generate_workload` — point lookups,
FD fetches, GROUP BY aggregates, joins, top-k, range counts): every
query with and without FD-derived indexes
(:func:`repro.advisor.evaluate_workload`), recording *measured*
before/after times per query, not estimates.  The stream's results are
checked against the row-dict oracle by
``tests/datagen/test_queries.py``.

Totals land in ``docs/BENCHMARKS.md`` and, machine-readably, in
``BENCH_results.json`` via the session fixture.
"""

from __future__ import annotations

import os

from conftest import run_once

from repro.advisor import evaluate_workload
from repro.datagen import generate_tpch, generate_workload
from repro.relational import kernels

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_SCALE = "tiny" if _SMOKE else "small"
_COUNT = 12 if _SMOKE else 30
_SEED = 2016


def _workload():
    catalog = generate_tpch(_SCALE, seed=7)
    queries = generate_workload(catalog, count=_COUNT, seed=_SEED)
    return catalog, queries


def test_sql_advisor_workload(benchmark, show, bench_results):
    catalog, queries = _workload()

    report = run_once(
        benchmark, evaluate_workload, catalog, queries, repeats=2
    )
    show(str(report))

    backend = kernels.active_backend_name()
    bench_results.record(
        "sql_advisor_baseline",
        report.baseline_seconds,
        size=len(report.timings),
        backend=backend,
        scale=_SCALE,
    )
    bench_results.record(
        "sql_advisor_advised",
        report.advised_seconds,
        size=len(report.timings),
        backend=backend,
        scale=_SCALE,
        speedup=round(report.speedup, 3),
        indexed_queries=report.indexed_queries,
    )

    # Every query was answered (and asserted identical) on both paths.
    assert len(report.timings) == len(queries)
    assert report.indexes_built, "advisor recommended no indexes on TPC-H"
    assert report.indexed_queries >= 1
