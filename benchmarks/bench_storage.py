"""Out-of-core storage bench (PR 9): lineitem under a ceiling.

``test_lineitem_out_of_core`` generates ``lineitem`` straight to disk
(:func:`repro.datagen.tpch.generate_to_store`, dependency-free stream,
one chunk resident), then on **each backend** runs the out-of-core
profile passes over the chunked store (:mod:`repro.storage`) — group
stats (the partition-build stand-in) and TANE level-1, both exact
spill merges, and a tiled-evidence sweep over a seeded row sample —
with an **asserted peak-heap ceiling**: peak traced bytes must
stay under ¼ of the store's materialized column bytes
(``manifest.materialized_bytes()``, codes + dictionaries).  At toy
scales a fixed floor covers the scale-independent cost of the evidence
sample's O(sample²) structures; at ``REPRO_TPCH_FULL=1`` (SF 1, ~6M
rows, the paper's 1GB column) the ¼ ceiling binds alone.

``REPRO_BENCH_SMOKE=1`` shrinks to CI seconds (SF 0.001); the default
is SF 0.01; ``REPRO_TPCH_FULL=1`` is the recorded SF-1 run.  Entries
land in ``BENCH_results.json`` keyed ``(name, backend, scale, rows)``,
so the SF-1 run and the smoke run coexist in one file.
"""

from __future__ import annotations

import os
import tracemalloc

from conftest import run_once

from repro.core.config import use_engine
from repro.bench.tables import render_rows
from repro.bench.timing import Timer
from repro.datagen import tpch
from repro.relational import kernels
from repro.storage.profile import evidence_sample, group_stats, tane_level1

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
_FULL = bool(os.environ.get("REPRO_TPCH_FULL"))
_SCALE = "paper-1gb" if _FULL else ("tiny" if _SMOKE else "small")
_CHUNK_ROWS = None if _FULL else (512 if _SMOKE else 4096)
#: Scale-independent allowance for the evidence sample's O(sample²)
#: structures, which dwarf a toy store; at SF 1 the ¼ rule (~190 MB)
#: exceeds it and binds alone.
_FLOOR_BYTES = 32 * 1024 * 1024
#: TANE level-1 sweep attributes (one spill merge per unordered pair).
#: The python backend groups rows scalar, so the full-scale sweep gets
#: a narrower set to stay in minutes; the ceiling assert is identical.
_TANE_ATTRS = ("orderkey", "partkey", "suppkey", "linenumber", "quantity")
_TANE_ATTRS_PY_FULL = ("partkey", "suppkey", "linenumber")
_EVIDENCE_ATTRS = ("partkey", "suppkey", "quantity", "discount", "tax")


def _profile_pass(store, backend: str) -> dict:
    """One backend's out-of-core profile workload, under tracemalloc."""
    tane_attrs = (
        _TANE_ATTRS_PY_FULL
        if _FULL and backend == "python"
        else _TANE_ATTRS
    )
    sample = 600 if _FULL and backend == "python" else 2_000
    with use_engine(backend=backend):
        tracemalloc.start()
        with Timer() as timer:
            stats = group_stats(store, ("partkey", "suppkey"))
            fds = tane_level1(store, tane_attrs)
            evidence = evidence_sample(
                store, sample=sample, attributes=_EVIDENCE_ATTRS
            )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return {
        "backend": backend,
        "seconds": timer.elapsed,
        "peak_bytes": peak,
        "groups": stats.distinct,
        "unary_fds": len(fds),
        "evidence_pairs": evidence.total_pairs,
    }


def test_lineitem_out_of_core(benchmark, show, bench_results, tmp_path):
    """lineitem streams to disk; profiling stays under the ¼ ceiling."""
    preset = tpch.SCALE_PRESETS[_SCALE]

    def _run() -> dict:
        with Timer() as gen_timer:
            stores = tpch.generate_to_store(
                tmp_path / "tpch",
                preset,
                seed=42,
                tables=("lineitem",),
                chunk_rows=_CHUNK_ROWS,
            )
        store = stores["lineitem"]
        reports = [
            _profile_pass(store, backend)
            for backend in kernels.available_backends()
        ]
        return {
            "store": store,
            "gen_seconds": gen_timer.elapsed,
            "reports": reports,
        }

    result = run_once(benchmark, _run)
    store = result["store"]
    materialized = store.manifest.materialized_bytes()
    ceiling = (
        materialized / 4
        if _FULL
        else max(materialized / 4, _FLOOR_BYTES)
    )
    bench_results.record(
        "storage.lineitem_generate",
        result["gen_seconds"],
        scale=preset.scale_factor,
        rows=store.num_rows,
        chunks=store.num_chunks,
        materialized_mb=round(materialized / 1e6, 1),
    )
    shown = []
    for report in result["reports"]:
        peak_mb = report["peak_bytes"] / 1e6
        shown.append(
            {
                "backend": report["backend"],
                "rows": f"{store.num_rows:,}",
                "chunks": store.num_chunks,
                "groups": f"{report['groups']:,}",
                "unary FDs": report["unary_fds"],
                "evidence pairs": f"{report['evidence_pairs']:,}",
                "seconds": round(report["seconds"], 2),
                "peak MB": round(peak_mb, 1),
                "ceiling MB": round(ceiling / 1e6, 1),
            }
        )
        bench_results.record(
            "storage.lineitem_profile",
            report["seconds"],
            backend=report["backend"],
            scale=preset.scale_factor,
            rows=store.num_rows,
            peak_mb=round(peak_mb, 2),
            ceiling_mb=round(ceiling / 1e6, 2),
            groups=report["groups"],
            unary_fds=report["unary_fds"],
            evidence_pairs=report["evidence_pairs"],
        )
        assert report["peak_bytes"] < ceiling, (
            f"{report['backend']}: peak {peak_mb:.1f} MB breaches the "
            f"{ceiling / 1e6:.1f} MB out-of-core ceiling "
            f"(materialized {materialized / 1e6:.1f} MB)"
        )
    show(render_rows(shown))
    store.close()

