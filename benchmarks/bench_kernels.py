"""Ablation: python vs numpy kernel backends on the engine's hot path.

PR 2 introduced the backend-selectable kernel layer
(:mod:`repro.relational.kernels`).  This bench times every vectorized
primitive against its pure-Python reference on the same workloads —
construction, refinement, the non-materializing ``refined_error`` scan,
the stripped product, multi-column distinct counting, entropies,
violating-pair counting, and end-to-end TANE discovery — asserting:

* both backends return identical results on every workload;
* the numpy backend is **≥ 2× faster in aggregate** at default sizes
  (the acceptance bar; recorded in ``docs/BENCHMARKS.md``).

Per-primitive ratios vary (sort-based grouping shines on construction
and counting scans; tiny relations stay at parity), which the printed
table makes visible.  Sizes shrink under ``REPRO_BENCH_SMOKE=1`` so the
CI smoke job exercises the full matrix in seconds.
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import run_once

from repro.core.config import use_engine
from repro.bench.tables import render_rows
from repro.datagen.synthetic import random_relation
from repro.datagen.tpch import generate_table
from repro.discovery.tane import discover_fds
from repro.eb.entropy import entropy, variation_of_information
from repro.fd.fd import fd
from repro.fd.measures import count_violating_pairs
from repro.relational import kernels

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: (rows, attrs, cardinality) of the synthetic workload; the speedup
#: assertion only applies at default sizes.
_ROWS = 5_000 if _SMOKE else 60_000
_WIDE_ROWS = 2_000 if _SMOKE else 12_000


def _workloads():
    orders = generate_table("orders", "small", seed=42)
    bulk = random_relation(
        "bulk", num_rows=_ROWS, num_attrs=6, cardinality=200, seed=7
    )
    wide = random_relation(
        "wide", num_rows=_WIDE_ROWS, num_attrs=10, cardinality=6, seed=3
    )
    return orders, bulk, wide


def _time(fn, repeat: int = 3) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the (last) result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _primitive_suite(relation, a, b, c):
    """One pass over every kernel primitive; returns checkable results."""
    relation.stats.clear()
    codes_b = relation.column(b).kernel_codes()
    codes_c = relation.column(c).kernel_codes()
    pa = relation.stripped_partition([a])
    refined = pa.refine(codes_b)
    results = {
        "error": pa.error(),
        "refined_error": pa.refined_error(codes_b, codes_c),
        "refined_classes": refined.num_classes,
        "product_classes": pa.product(
            relation.stripped_partition([b])
        ).num_classes,
        "count_distinct": relation.count_distinct_raw([a, b, c]),
        "entropy": round(entropy(pa), 9),
        "vi": round(
            variation_of_information(pa, relation.stripped_partition([b])), 9
        ),
        "violating": count_violating_pairs(
            relation, fd(f"[{b}, {c}] -> {a}"), allow_nulls=True
        ),
    }
    return results


def test_kernel_backend_ablation(benchmark, show, bench_results):
    """Primitive-level python-vs-numpy timings, identical results."""
    orders, bulk, wide = _workloads()
    cases = [
        ("tpch.orders", orders, "custkey", "orderstatus", "orderpriority"),
        ("bulk 60k×6" if not _SMOKE else "bulk", bulk, *bulk.attribute_names[:3]),
        ("wide 12k×10" if not _SMOKE else "wide", wide, *wide.attribute_names[:3]),
    ]

    def run():
        rows = []
        totals = {"python": 0.0, "numpy": 0.0}
        for label, relation, a, b, c in cases:
            timings = {}
            outputs = {}
            for backend in ("python", "numpy"):
                with use_engine(backend=backend):
                    # Fresh columns per backend so encoding/code-array
                    # conversion costs are not charged to the kernels.
                    for name in (a, b, c):
                        relation.column(name).kernel_codes()
                    seconds, result = _time(
                        lambda: _primitive_suite(relation, a, b, c)
                    )
                    timings[backend] = seconds
                    outputs[backend] = result
            assert outputs["python"] == outputs["numpy"], label
            totals["python"] += timings["python"]
            totals["numpy"] += timings["numpy"]
            rows.append(
                {
                    "workload": label,
                    "python_ms": round(timings["python"] * 1e3, 2),
                    "numpy_ms": round(timings["numpy"] * 1e3, 2),
                    "speedup": round(timings["python"] / timings["numpy"], 2),
                }
            )
        rows.append(
            {
                "workload": "aggregate",
                "python_ms": round(totals["python"] * 1e3, 2),
                "numpy_ms": round(totals["numpy"] * 1e3, 2),
                "speedup": round(totals["python"] / totals["numpy"], 2),
            }
        )
        return rows, totals

    rows, totals = run_once(benchmark, run)
    show(render_rows(rows, title="Kernel ablation: python vs numpy backends"))
    for backend in ("python", "numpy"):
        bench_results.record(
            "kernels.primitives",
            seconds=totals[backend],
            size=_ROWS,
            backend=backend,
        )
    if not _SMOKE:
        assert totals["python"] >= 2.0 * totals["numpy"], (
            "expected >=2x aggregate kernel speedup, got "
            f"{totals['python'] / totals['numpy']:.2f}x"
        )


def test_discovery_end_to_end_ablation(benchmark, show, bench_results):
    """TANE discovery through the kernel layer: same FDs, both backends."""
    rows = 1_000 if _SMOKE else 8_000
    relation = random_relation(
        "disc", num_rows=rows, num_attrs=9, cardinality=12, seed=11
    )

    def run():
        timings = {}
        outputs = {}
        for backend in ("python", "numpy"):
            with use_engine(backend=backend):
                relation.stats.clear()
                start = time.perf_counter()
                result = discover_fds(relation, max_lhs_size=3)
                timings[backend] = time.perf_counter() - start
                outputs[backend] = [
                    (str(item.fd), round(item.confidence, 12))
                    for item in result.fds
                ]
        return timings, outputs

    timings, outputs = run_once(benchmark, run)
    assert outputs["python"] == outputs["numpy"]
    for backend in ("python", "numpy"):
        bench_results.record(
            "kernels.discovery", seconds=timings[backend], size=rows, backend=backend
        )
    show(
        render_rows(
            [
                {
                    "workload": f"discover_fds ({relation.num_rows} rows × 9)",
                    "python_s": round(timings["python"], 3),
                    "numpy_s": round(timings["numpy"], 3),
                    "speedup": round(timings["python"] / timings["numpy"], 2),
                }
            ],
            title="Kernel ablation: end-to-end discovery",
        )
    )
