"""Ablation: tiled evidence engine vs the reference enumeration (PR 5).

Four workload families, each cross-checked for identical results:

* **evidence build (narrow)** — a 24-predicate numeric space: the
  reference's per-row numpy sweep vs the tiled block sweep;
* **evidence build (wide)** — a >62-predicate space, where the
  reference falls back to the pure-Python representative loop while the
  tiled engine stays vectorized on multi-word masks;
* **candidate probing** — `violations_of` over a few hundred candidate
  DCs: the retired O(distinct) mask scan vs the postings-index
  intersection;
* **end-to-end discovery** — full-enumeration mining vs the
  sample-then-verify loop (identical DC sets by construction).

The acceptance bar asserts the tiled engine is **≥ 3× faster in
aggregate** on the numpy backend at default sizes (≥ 1× under
``REPRO_BENCH_SMOKE=1``, where sizes shrink to CI seconds and ratios
are noise).  The python backend leg is informational with a loose
floor — the tiled sweep is the same interpreted loop there; its wins
come from the index and the verify-only discovery path.

Numbers land in ``docs/BENCHMARKS.md`` and, machine-readably, in
``BENCH_results.json`` via the session fixture.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any

import pytest
from conftest import run_once

from repro.core.config import use_engine
from repro.bench.tables import render_rows
from repro.dc.engine import build_evidence_tiled, discover_dcs
from repro.dc.evidence import build_evidence_set
from repro.dc.predicates import build_predicate_space
from repro.dc.search import mine_denial_constraints
from repro.relational import kernels
from repro.relational.relation import Relation

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Workload sizes (narrow rows, wide rows, discovery rows).  The
#: python leg always runs the small grid: its reference loops are the
#: same interpreted code, so big instances only add minutes, not signal.
_SIZES = (400, 120, 500) if _SMOKE else (2_500, 600, 3_000)
_PY_SIZES = (300, 100, 400)
_MIN_SPEEDUP = 1.0 if _SMOKE else 3.0
_PY_MIN_SPEEDUP = 0.3


def _numeric_relation(name: str, rows: int, attrs: int, cards, seed: int) -> Relation:
    rng = random.Random(seed)
    columns = {
        f"A{a}": [float(rng.randrange(cards[a % len(cards)])) for _ in range(rows)]
        for a in range(attrs)
    }
    return Relation.from_columns(name, columns)


def _scan_violations(counts: dict[int, int], dc_mask: int) -> int:
    """The retired per-candidate full scan (the probing oracle)."""
    return sum(c for mask, c in counts.items() if mask & dc_mask == dc_mask)


def _candidate_masks(space) -> list[int]:
    """A few hundred deterministic 2–3 predicate candidate masks."""
    size = space.size
    masks = []
    for i in range(size):
        for j in range(i + 1, size):
            masks.append((1 << i) | (1 << j))
    rng = random.Random(17)
    for _ in range(len(masks)):
        i, j, k = rng.sample(range(size), 3)
        masks.append((1 << i) | (1 << j) | (1 << k))
    return masks[:400]


def _time(fn, repeat: int = 3) -> tuple[float, Any]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_ablation(bench_results, backend_label: str, sizes):
    narrow_rows, wide_rows, discover_rows = sizes
    rows: list[dict[str, str]] = []
    totals = {"reference": 0.0, "tiled": 0.0}

    def record(workload: str, ref_s: float, tiled_s: float, size: int) -> None:
        totals["reference"] += ref_s
        totals["tiled"] += tiled_s
        rows.append(
            {
                "workload": workload,
                "reference": f"{ref_s * 1e3:.1f}ms",
                "tiled": f"{tiled_s * 1e3:.1f}ms",
                "speedup": f"{ref_s / tiled_s:.1f}x",
            }
        )
        bench_results.record(
            f"evidence.{workload.replace(' ', '_')}",
            tiled_s,
            size=size,
            backend=backend_label,
            reference_seconds=round(ref_s, 6),
        )

    # --- evidence build, narrow (≤ 62 predicate) space ---------------
    narrow = _numeric_relation("narrow", narrow_rows, 4, (40, 24, 12, 6), seed=3)
    narrow_space = build_predicate_space(narrow)
    ref_s, reference = _time(lambda: build_evidence_set(narrow, narrow_space))
    tiled_s, tiled = _time(lambda: build_evidence_tiled(narrow, narrow_space))
    assert tiled.counts == reference.counts
    record("build narrow", ref_s, tiled_s, narrow.num_rows)

    # --- evidence build, wide (> 62 predicate) space ------------------
    wide = _numeric_relation("wide", wide_rows, 11, (9, 7, 5), seed=4)
    wide_space = build_predicate_space(wide)
    assert wide_space.size > 62
    ref_s, reference = _time(lambda: build_evidence_set(wide, wide_space), repeat=2)
    tiled_s, tiled = _time(lambda: build_evidence_tiled(wide, wide_space), repeat=2)
    assert tiled.counts == reference.counts
    record("build wide", ref_s, tiled_s, wide.num_rows)

    # --- candidate probing: full scan vs postings intersection --------
    # Probed on the wide evidence (tens of thousands of distinct
    # masks): the regime the repair and mining loops live in.
    evidence = tiled
    candidates = _candidate_masks(wide_space)
    scan_s, scanned = _time(
        lambda: [_scan_violations(evidence.counts, m) for m in candidates]
    )
    index = evidence.index  # built once, probed many times
    index_s, probed = _time(lambda: [index.violations_of(m) for m in candidates])
    assert scanned == probed
    record("violations_of x400", scan_s, index_s, evidence.num_distinct)

    # --- end-to-end discovery: enumerate-all vs sample-then-verify ----
    disco = _numeric_relation("disco", discover_rows, 4, (200, 50, 8, 4), seed=5)
    disco_space = build_predicate_space(disco, order_predicates=False)
    ref_s, reference = _time(
        lambda: mine_denial_constraints(
            build_evidence_set(disco, disco_space), max_size=3
        ),
        repeat=2,
    )
    tiled_s, tiled = _time(
        lambda: discover_dcs(disco, disco_space, max_size=3), repeat=2
    )
    assert set(tiled.constraints) == set(reference.constraints)
    record("discover end-to-end", ref_s, tiled_s, disco.num_rows)

    return rows, totals


def test_evidence_engine_ablation(benchmark, show, bench_results):
    """Reference vs tiled on the numpy backend: identical outputs, ≥3×."""
    rows, totals = run_once(benchmark, _run_ablation, bench_results, "numpy", _SIZES)
    aggregate = totals["reference"] / totals["tiled"]
    show(
        render_rows(rows)
        + f"\naggregate speedup ({kernels.active_backend_name()}): {aggregate:.2f}x"
    )
    bench_results.record(
        "evidence.aggregate_speedup",
        totals["tiled"],
        backend=kernels.active_backend_name(),
        speedup=round(aggregate, 3),
    )
    assert aggregate >= _MIN_SPEEDUP, (
        f"tiled evidence engine only {aggregate:.2f}x over the reference "
        f"enumeration (bar: {_MIN_SPEEDUP}x)"
    )


def test_python_backend_parity(benchmark, show, bench_results):
    """The pure-python leg: identical outputs, informational timings
    with a loose floor so a catastrophic regression cannot hide."""

    def run():
        with use_engine(backend="python"):
            return _run_ablation(bench_results, "python", _PY_SIZES)

    rows, totals = run_once(benchmark, run)
    aggregate = totals["reference"] / totals["tiled"]
    show(render_rows(rows) + f"\naggregate speedup (python): {aggregate:.2f}x")
    bench_results.record(
        "evidence.python_backend_speedup",
        totals["tiled"],
        backend="python",
        speedup=round(aggregate, 3),
    )
    assert aggregate >= _PY_MIN_SPEEDUP
