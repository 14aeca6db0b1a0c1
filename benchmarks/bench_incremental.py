"""Ablation: delta maintenance vs cold per-window recomputation.

PR 3 introduced the incremental delta engine
(:mod:`repro.relational.delta`): ``Relation.extend`` snapshots share
and patch their parent's cached state, ``TupleLog.prefixes`` chains
windows through it, and the ``FDMonitor`` rides one shared incremental
statistics structure.  This bench times the two continuous-monitoring
workloads the engine exists for, against the cold baseline that
rebuilds every window from raw tuples:

* **prefix** — a TFD assessed over growing prefixes of a log (the
  "full history so far" view): cold work is O(n²/step) in total, delta
  is O(n) plus O(Δ) maintenance per window;
* **drift** — a multi-FD monitoring stream with a mid-stream regime
  change, confidence read at every batch boundary: cold re-encodes and
  re-counts the full prefix per batch, the delta monitor folds each
  tuple once into trackers shared by all watched FDs.

Asserted on every run and backend:

* assessments (confidence/goodness) are **identical** to cold
  computation, window by window;
* stripped partitions over the FD sides match cold construction
  (single-attribute: exact class lists; multi-attribute: equal class
  sets and identical error/distinct/covered scalars);
* entropies agree to 1e-9; violating-pair counts are exact;
* the delta path is **≥ 5× faster in aggregate** at default sizes
  (≥ 3× under ``REPRO_BENCH_SMOKE=1``, where windows are few enough
  that fixed costs blur the ratio).

Numbers are recorded in ``docs/BENCHMARKS.md`` and emitted to
``BENCH_results.json`` via the shared recorder.
"""

from __future__ import annotations

import os
import random
import time

from conftest import run_once

from repro.core.config import use_engine
from repro.bench.tables import render_rows
from repro.core.monitor import FDMonitor
from repro.eb.entropy import entropy, entropy_of
from repro.fd.fd import fd
from repro.fd.measures import assess, count_violating_pairs
from repro.relational import kernels
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.temporal.tfd import TemporalFD, WindowMode, assess_over_log
from repro.temporal.window import TupleLog

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Prefix workload: total rows and window step.  The smoke sizes stay
#: big enough that per-window fixed costs don't blur the asymptotic
#: gap the assertion checks (cold is quadratic in windows, delta is
#: linear), while keeping the CI smoke job in the sub-second range.
_PREFIX_ROWS = 10_000 if _SMOKE else 30_000
_PREFIX_STEP = 500 if _SMOKE else 1_000
#: Drift workload: rows per regime and batch size between readings.
_DRIFT_ROWS = 6_000 if _SMOKE else 16_000
_DRIFT_STEP = 300 if _SMOKE else 500

_SPEEDUP_FLOOR = 3.0 if _SMOKE else 5.0


def _prefix_rows() -> list[tuple]:
    rng = random.Random(20160315)
    return [
        (
            f"br{rng.randrange(80)}",
            f"cl{rng.randrange(4)}",
            f"t{rng.randrange(9)}",
            rng.randrange(50),
        )
        for _ in range(_PREFIX_ROWS)
    ]


def _drift_rows() -> list[tuple]:
    """Two regimes: Branch → Tax holds, then Tax starts tracking Class."""
    rng = random.Random(5)
    clean = [
        (f"br{b}", f"cl{rng.randrange(3)}", f"t{b % 7}")
        for b in (rng.randrange(200) for _ in range(_DRIFT_ROWS))
    ]
    drifted = [
        (branch, cls, f"{tax}/{cls}")
        for branch, cls, tax in (
            (f"br{b}", f"cl{rng.randrange(3)}", f"t{b % 7}")
            for b in (rng.randrange(200) for _ in range(_DRIFT_ROWS))
        )
    ]
    return clean + drifted


def _check_equivalence(delta_relation: Relation, cold_relation: Relation, dep) -> None:
    """The acceptance bar: delta results indistinguishable from cold."""
    x = list(dep.antecedent)
    xy = x + list(dep.consequent)
    p_delta = delta_relation.stripped_partition(x)
    p_cold = cold_relation.stripped_partition(x)
    if len(x) == 1:
        assert [list(c) for c in p_delta.classes] == [
            list(c) for c in p_cold.classes
        ], "single-attribute partition must match cold class-for-class"
    assert {frozenset(c) for c in p_delta.classes} == {
        frozenset(c) for c in p_cold.classes
    }
    for delta_p, cold_p in (
        (p_delta, p_cold),
        (delta_relation.stripped_partition(xy), cold_relation.stripped_partition(xy)),
    ):
        assert delta_p.error() == cold_p.error()
        assert delta_p.num_distinct == cold_p.num_distinct
        assert delta_p.covered_rows == cold_p.covered_rows
    assert (
        abs(entropy_of(delta_relation, x) - entropy(p_cold)) < 1e-9
    ), "tracked entropy must agree with the cold partition entropy"
    assert count_violating_pairs(delta_relation, dep) == count_violating_pairs(
        cold_relation, dep
    )


def _run_prefix(backend: str) -> dict:
    """Growing-prefix TFD assessment: delta chain vs cold rebuilds."""
    rows = _prefix_rows()
    schema = RelationSchema("stream", ["Branch", "Class", "Tax", "Qty"])
    dep = fd("Branch -> Tax")
    spec = TemporalFD(dep, window_size=_PREFIX_STEP, mode=WindowMode.PREFIX)

    with use_engine(backend=backend):
        log = TupleLog(schema, rows)
        start = time.perf_counter()
        series = assess_over_log(log, spec)
        # Keep the chain honest: materialize the partitions/entropies
        # the equivalence check reads, off the warm final window.
        final = series.assessments[-1].window.relation
        delta_seconds = time.perf_counter() - start

        start = time.perf_counter()
        cold_confidences = []
        cold_final = None
        for end in range(_PREFIX_STEP, len(rows) + 1, _PREFIX_STEP):
            cold_final = Relation.from_rows(schema, rows[:end], validate=False)
            cold_confidences.append(assess(cold_final, dep).confidence)
        if len(rows) % _PREFIX_STEP:
            cold_final = Relation.from_rows(schema, rows, validate=False)
            cold_confidences.append(assess(cold_final, dep).confidence)
        cold_seconds = time.perf_counter() - start

        assert series.confidences == cold_confidences, (
            "delta-chained assessments must equal cold per-window assessments"
        )
        _check_equivalence(final, cold_final, dep)
    return {
        "workload": "prefix",
        "windows": len(series.assessments),
        "delta_s": delta_seconds,
        "cold_s": cold_seconds,
    }


def _run_drift(backend: str) -> dict:
    """Multi-FD drift monitoring: shared delta stream vs cold re-checks."""
    rows = _drift_rows()
    schema = RelationSchema("stream", ["Branch", "Class", "Tax"])
    watched = [fd("Branch -> Tax"), fd("[Branch, Class] -> Tax"), fd("Class -> Tax")]

    with use_engine(backend=backend):
        start = time.perf_counter()
        monitor = FDMonitor(schema, default_threshold=0.8)
        states = [monitor.watch(dependency) for dependency in watched]
        delta_readings = []
        for batch_start in range(0, len(rows), _DRIFT_STEP):
            monitor.extend(rows[batch_start : batch_start + _DRIFT_STEP])
            delta_readings.append(tuple(state.confidence for state in states))
        delta_seconds = time.perf_counter() - start

        start = time.perf_counter()
        cold_readings = []
        for batch_end in range(_DRIFT_STEP, len(rows) + 1, _DRIFT_STEP):
            relation = Relation.from_rows(schema, rows[:batch_end], validate=False)
            cold_readings.append(
                tuple(
                    assess(relation, dependency).confidence
                    for dependency in watched
                )
            )
        cold_seconds = time.perf_counter() - start

        assert delta_readings == cold_readings, (
            "monitor confidences must equal cold full-prefix assessments"
        )
    return {
        "workload": "drift",
        "windows": len(delta_readings),
        "delta_s": delta_seconds,
        "cold_s": cold_seconds,
    }


def test_incremental_vs_cold_ablation(benchmark, show, bench_results):
    """The PR-3 acceptance run: both workloads, both backends."""
    backends = (
        ("python", "numpy") if kernels.numpy_available() else ("python",)
    )

    def run():
        rows = []
        totals: dict[str, dict[str, float]] = {}
        for backend in backends:
            totals[backend] = {"delta": 0.0, "cold": 0.0}
            for result in (_run_prefix(backend), _run_drift(backend)):
                totals[backend]["delta"] += result["delta_s"]
                totals[backend]["cold"] += result["cold_s"]
                rows.append(
                    {
                        "workload": f"{result['workload']} ({backend})",
                        "windows": result["windows"],
                        "cold_ms": round(result["cold_s"] * 1e3, 1),
                        "delta_ms": round(result["delta_s"] * 1e3, 1),
                        "speedup": round(result["cold_s"] / result["delta_s"], 2),
                    }
                )
        for backend in backends:
            total = totals[backend]
            rows.append(
                {
                    "workload": f"aggregate ({backend})",
                    "windows": "",
                    "cold_ms": round(total["cold"] * 1e3, 1),
                    "delta_ms": round(total["delta"] * 1e3, 1),
                    "speedup": round(total["cold"] / total["delta"], 2),
                }
            )
        return rows, totals

    rows, totals = run_once(benchmark, run)
    show(
        render_rows(
            rows, title="Incremental ablation: delta maintenance vs cold rebuilds"
        )
    )
    for row in rows:
        if str(row["workload"]).startswith("aggregate"):
            continue
        workload, backend = str(row["workload"]).split(" (")
        bench_results.record(
            f"incremental.{workload}.cold",
            seconds=row["cold_ms"] / 1e3,
            size=_PREFIX_ROWS if workload == "prefix" else 2 * _DRIFT_ROWS,
            backend=backend.rstrip(")"),
        )
        bench_results.record(
            f"incremental.{workload}.delta",
            seconds=row["delta_ms"] / 1e3,
            size=_PREFIX_ROWS if workload == "prefix" else 2 * _DRIFT_ROWS,
            backend=backend.rstrip(")"),
            speedup=row["speedup"],
        )
    for backend, total in totals.items():
        ratio = total["cold"] / total["delta"]
        assert ratio >= _SPEEDUP_FLOOR, (
            f"expected >={_SPEEDUP_FLOOR:g}x aggregate speedup on the "
            f"{backend} backend, got {ratio:.2f}x"
        )
