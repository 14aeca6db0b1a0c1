"""CI scale smoke: everything out-of-core at SF 0.01, hard memory assert.

Generates TPC-H ``lineitem`` (~60K rows) straight to a chunked store in
a temp directory, then runs the three out-of-core consumers end to end
under ``tracemalloc``:

* discovery — level-1 TANE plus the Table 5 FD assessment
  (``partkey → suppkey``), exact spill-merge mode;
* SQL — a pushed-down aggregate over the store attached to a
  ``Database`` (``db.query``), plus a selective orderkey probe whose
  zone-map verdict comes from ``db.explain``;
* monitoring — the full store replayed through the service, one chunk
  per batch (``run_store_ingest``).

The hard assert: peak traced heap stays under ¼ of the store's
materialized column bytes (with a small fixed floor for the
interpreter's own baseline), i.e. the pipeline never quietly
materializes the table.  Results append to ``BENCH_results.json``
(merge-by-identity, so other jobs' entries survive).

Run: ``PYTHONPATH=src python benchmarks/scale_smoke.py``
"""

from __future__ import annotations

import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

from repro.bench.timing import BenchResults, Timer
from repro.datagen import tpch
from repro.relational import kernels
from repro.service.harness import run_store_ingest
from repro.sql import Database
from repro.storage.profile import assess_fd, tane_level1

SCALE = "small"  # SF 0.01
CHUNK_ROWS = 4096
FLOOR_BYTES = 32 * 1024 * 1024


def explained_skips(db: Database, sql: str) -> tuple[int, int]:
    """``(skipped, total)`` chunks from EXPLAIN's dry zone-map walk —
    the same walk the statement's store scan runs."""
    match = re.search(r"zone maps skip (\d+)/(\d+) chunks", db.explain(sql))
    assert match, f"no store scan in the plan of {sql!r}"
    return int(match[1]), int(match[2])


def main() -> int:
    results = BenchResults()
    preset = tpch.SCALE_PRESETS[SCALE]
    with tempfile.TemporaryDirectory(prefix="scale-smoke-") as tmp:
        with Timer() as gen_timer:
            stores = tpch.generate_to_store(
                Path(tmp) / "tpch",
                preset,
                seed=42,
                tables=("lineitem",),
                chunk_rows=CHUNK_ROWS,
            )
        store = stores["lineitem"]
        materialized = store.manifest.materialized_bytes()
        ceiling = max(materialized / 4, FLOOR_BYTES)
        print(
            f"[scale-smoke] generated lineitem SF {preset.scale_factor}: "
            f"{store.num_rows:,} rows / {store.num_chunks} chunks, "
            f"{materialized / 1e6:.1f} MB materialized, "
            f"gen {gen_timer.formatted}"
        )

        tracemalloc.start()
        with Timer() as timer:
            fds = tane_level1(
                store, ("orderkey", "partkey", "suppkey", "linenumber")
            )
            verdict = assess_fd(store, ("partkey",), ("suppkey",))
            db = Database.from_relations()
            db.attach_store(store)
            result = db.query(
                "SELECT suppkey, COUNT(*) AS c FROM lineitem "
                "WHERE quantity > 30 GROUP BY suppkey"
            )
            # A selective orderkey probe: rows arrive orderkey-ascending,
            # so the zone maps should refute almost every chunk.
            probe_key = store.chunk_zone(
                "orderkey", store.num_chunks // 2
            ).min_value
            probe_sql = (
                f"SELECT orderkey, quantity FROM lineitem "
                f"WHERE orderkey = {probe_key}"
            )
            probe = db.query(probe_sql)
            zone_skipped, zone_chunks = explained_skips(db, probe_sql)
            # The ingest harness resets the shared peak counter for its
            # own phase report, so snapshot the discovery/SQL peak first.
            _, discovery_peak = tracemalloc.get_traced_memory()
            report = run_store_ingest(
                store,
                Path(tmp) / "state",
                watches=(("[partkey] -> [suppkey]", 0.999),),
                columns=("orderkey", "partkey", "suppkey", "quantity"),
            )
        _, ingest_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak = max(discovery_peak, ingest_peak)

        print(
            f"[scale-smoke] tane level-1: {len(fds)} unary FDs; "
            f"partkey->suppkey confidence {verdict.confidence:.4f}; "
            f"sql groups {len(result.rows)}; "
            f"zone maps skipped {zone_skipped}/{zone_chunks} chunks "
            f"({len(probe.rows)} probe rows); "
            f"ingest {report['tuples']:,} tuples, {report['alerts']} alerts"
        )
        print(
            f"[scale-smoke] {timer.formatted}, peak {peak / 1e6:.1f} MB "
            f"(ceiling {ceiling / 1e6:.1f} MB)"
        )
        results.record(
            "storage.scale_smoke",
            timer.elapsed,
            backend=kernels.active_backend_name(),
            scale=preset.scale_factor,
            rows=store.num_rows,
            peak_mb=round(peak / 1e6, 2),
            ceiling_mb=round(ceiling / 1e6, 2),
            alerts=report["alerts"],
            zone_chunks=zone_chunks,
            zone_skipped=zone_skipped,
        )
        results.write(merge=True)

        assert report["tuples"] == store.num_rows, "ingest dropped tuples"
        assert probe.rows, "orderkey probe found no rows"
        assert zone_skipped >= zone_chunks // 2, (
            "zone maps skipped fewer than half the chunks on a point probe"
        )
        assert verdict.confidence < 1.0, "partkey->suppkey must be violated"
        if peak >= ceiling:
            print(
                f"[scale-smoke] FAIL: peak {peak / 1e6:.1f} MB breaches "
                f"the {ceiling / 1e6:.1f} MB out-of-core ceiling",
                file=sys.stderr,
            )
            return 1
        store.close()
    print("[scale-smoke] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
