"""Optimizer ablation: optimized vs unoptimized execution (PR 10).

Two measurements, both cross-checked result-for-result against an
unoptimized oracle before any timing is trusted:

* **plan workload** — the seeded TPC-H query stream
  (:func:`repro.datagen.queries.generate_workload`) through the
  columnar engine, optimized (``execute``) and as planned
  (``execute_plan`` on the raw ``plan_query`` plan).  Pushdown, pruning
  and join reordering must never *lose* time in aggregate.
* **store scans** — selective point/range ``orderkey`` predicates over
  a chunked on-disk ``lineitem`` store attached to a ``Database``
  (``db.query``), checked against the same SQL over the store
  materialized in memory.  Rows arrive orderkey-ascending so every
  chunk covers a narrow key band; the zone maps must skip at least half
  of all the statements' chunks (``db.explain``'s dry walk), and the
  skipping scans must be ≥2× faster in aggregate than full scans
  (``scan_store`` without a WHERE, the statement then run in memory) on
  the numpy backend at default (non-smoke) sizes.

Totals and chunks-skipped ratios land in ``BENCH_results.json`` via the
session fixture.
"""

from __future__ import annotations

import os
import random
import time

from conftest import run_once

from repro.bench.tables import render_rows
from repro.datagen import generate_tpch, generate_workload
from repro.datagen.tpch import generate_to_store
from repro.relational import kernels
from repro.sql import (
    Database,
    execute,
    execute_on_relation,
    execute_plan,
    parse,
    plan_query,
)
from repro.storage.sqlbridge import scan_store
from scale_smoke import explained_skips

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_SCALE = "tiny" if _SMOKE else "small"
_COUNT = 12 if _SMOKE else 30
_SEED = 2016
_SCAN_QUERIES = 10 if _SMOKE else 24
_SCAN_REPEATS = 2 if _SMOKE else 3


def test_optimizer_plan_workload(benchmark, show, bench_results):
    catalog = generate_tpch(_SCALE, seed=7)
    queries = generate_workload(catalog, count=_COUNT, seed=_SEED)

    # Correctness first: the oracle must agree on every stream member.
    def _run(query, optimize: str):
        if optimize == "on":
            return execute(catalog, query.sql)
        return execute_plan(catalog, plan_query(parse(query.sql)))

    for query in queries:
        optimized = _run(query, "on")
        oracle = _run(query, "off")
        assert optimized.columns == oracle.columns, query.name
        assert optimized.rows == oracle.rows, query.name

    def _total(optimize: str) -> float:
        total = 0.0
        for query in queries:
            start = time.perf_counter()
            _run(query, optimize)
            total += time.perf_counter() - start
        return total

    totals = run_once(
        benchmark, lambda: {"on": _total("on"), "off": _total("off")}
    )
    backend = kernels.active_backend_name()
    show(
        render_rows(
            [
                {"optimize": mode, "queries": len(queries), "seconds": round(s, 4)}
                for mode, s in totals.items()
            ],
            title=f"optimizer ablation: plan workload ({_SCALE})",
        )
    )
    speedup = totals["off"] / totals["on"] if totals["on"] else float("inf")
    for mode, seconds in totals.items():
        bench_results.record(
            f"optimizer_workload_{mode}",
            seconds,
            size=len(queries),
            backend=backend,
            scale=_SCALE,
            speedup=round(speedup, 3),
        )

    # The optimizer must never cost more than it saves (10% noise floor).
    assert totals["on"] <= totals["off"] * 1.10, (
        "optimized workload slower than unoptimized: "
        f"{totals['on']:.4f}s vs {totals['off']:.4f}s"
    )


def test_optimizer_store_scans(benchmark, show, bench_results, tmp_path):
    stores = generate_to_store(
        tmp_path, _SCALE, seed=7, tables=("lineitem",), chunk_rows=512
    )
    store = stores["lineitem"]
    try:
        lo = store.chunk_zone("orderkey", 0).min_value
        hi = store.chunk_zone("orderkey", store.num_chunks - 1).max_value
        rng = random.Random(_SEED)
        span = max(1, (hi - lo) // 50)
        sqls = []
        for index in range(_SCAN_QUERIES):
            key = rng.randint(lo, hi)
            if index % 2 == 0:
                where = f"orderkey = {key}"
            else:
                where = f"orderkey >= {key} AND orderkey < {key + span}"
            sqls.append(
                "SELECT orderkey, partkey, quantity FROM lineitem "
                f"WHERE {where} ORDER BY orderkey, partkey"
            )

        # The unskipped side reads every chunk (no WHERE, so no zone
        # maps) and runs the same statement on the result in memory.
        columns = ("orderkey", "partkey", "quantity")

        def _full_scan(sql: str):
            return execute_on_relation(scan_store(store, columns=columns), sql)

        db = Database.from_relations()
        db.attach_store(store)
        in_memory = store.to_relation()
        for sql in sqls:
            optimized = db.query(sql)
            oracle = execute_on_relation(in_memory, sql)
            assert optimized.rows == oracle.rows, sql
            assert _full_scan(sql).rows == oracle.rows, sql
        verdicts = [explained_skips(db, sql) for sql in sqls]

        def _total(skip: bool) -> float:
            total = 0.0
            for _ in range(_SCAN_REPEATS):
                for sql in sqls:
                    start = time.perf_counter()
                    if skip:
                        db.query(sql)
                    else:
                        _full_scan(sql)
                    total += time.perf_counter() - start
            return total

        totals = run_once(benchmark, lambda: {"on": _total(True), "off": _total(False)})
    finally:
        store.close()

    backend = kernels.active_backend_name()
    skip_ratio = sum(skipped for skipped, _ in verdicts) / sum(
        total for _, total in verdicts
    )
    speedup = totals["off"] / totals["on"] if totals["on"] else float("inf")
    show(
        render_rows(
            [
                {
                    "zone maps": mode,
                    "queries": _SCAN_QUERIES * _SCAN_REPEATS,
                    "seconds": round(seconds, 4),
                }
                for mode, seconds in totals.items()
            ],
            title=(
                f"optimizer ablation: lineitem store scans ({_SCALE}, "
                f"{store.num_chunks} chunks, skip ratio {skip_ratio:.2f})"
            ),
        )
    )
    for mode, seconds in totals.items():
        bench_results.record(
            f"optimizer_store_scan_{mode}",
            seconds,
            size=_SCAN_QUERIES * _SCAN_REPEATS,
            backend=backend,
            scale=_SCALE,
            rows=store.num_rows,
            speedup=round(speedup, 3),
            chunks_skipped_ratio=round(skip_ratio, 4),
        )

    assert skip_ratio >= 0.5, (
        f"zone maps skipped only {skip_ratio:.0%} of chunks on selective "
        "orderkey predicates"
    )
    floor = 2.0 if (not _SMOKE and backend == "numpy") else 1.0
    assert speedup >= floor, (
        f"skipping store scans only {speedup:.2f}x faster than full scans "
        f"(need >= {floor}x): {totals['on']:.4f}s vs {totals['off']:.4f}s"
    )
