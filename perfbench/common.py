"""Shared pieces of the benchmark: metric tables, timing, tracing, summaries.

Every workload module exposes ``run(seed, seconds, trace, workdir)`` and
returns an :class:`Outcome`.  ``run.py`` picks the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) out of it.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: End-to-end metrics, reported by every workload from its untraced run.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("lookup_p50_ms", "ms"),
    ("analytic_p50_ms", "ms"),
    ("scan_p50_ms", "ms"),
)

_EVOLVE_LAYERS = (
    ("relational.extend_ms", "ms"),
    ("fd.violations_ms", "ms"),
    ("core.propose_ms", "ms"),
    ("core.nodes_explored", "count"),
    ("core.nodes_enqueued", "count"),
    ("stats.count_queries", "count"),
    ("stats.partitions_built", "count"),
    ("stats.partition_hits", "count"),
    ("stats.delta_hits", "count"),
    ("stats.partition_evictions", "count"),
    ("stats.partition_hit_ratio", "ratio"),
)

#: Per-layer metrics, reported from the traced run.  A workload that
#: bypasses a layer reports 0 for that layer's metrics.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *(
        (f"{name}.{relation}", unit)
        for relation in ("veterans", "lineitem")
        for name, unit in _EVOLVE_LAYERS
    ),
    ("service.accept_s", "s"),
    ("service.drain_s", "s"),
    ("monitor.apply_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_tuple", "B/tuple"),
    ("service.recover_s", "s"),
    ("sql.parse_ms", "ms"),
    ("sql.plan_ms", "ms"),
    ("sql.optimize_ms", "ms"),
    ("sql.execute_ms", "ms"),
    ("storage.scan_ms", "ms"),
    ("storage.rows_materialized", "count"),
    ("storage.post_scan_ms", "ms"),
    ("storage.chunks_total", "count"),
    ("storage.chunks_skipped", "count"),
    ("storage.skip_ratio", "ratio"),
    ("storage.open_ms", "ms"),
    ("gc.cyclic_objects_per_round", "count"),
    ("trace.overhead_pct", "%"),
)



@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    details: dict[str, Any] = field(default_factory=dict)


#: What the speed probe takes at the reference speed (a 2-vCPU VM in its
#: fast state); reported times are scaled to this speed.
REFERENCE_PROBE_S = 0.0025


class Speedometer:
    """Scales wall times to a reference machine speed.

    The shared host this benchmark was defined on alternates between its
    normal speed and a state ~1.5 times slower, for seconds to tens of
    seconds at a time; every timing in a run moves with it.  Before each
    op the benchmark times a fixed pure-Python probe, and the op's time
    is multiplied by :data:`REFERENCE_PROBE_S` over the median of the
    last few probes.  Work the package does faster or slower still shows
    in full: the probe does not call the package.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self, window: int = 5) -> float:
        """Time the probe; return the scale factor for the next op."""
        start = perf_counter()
        total = 0
        for value in range(40_000):
            total += value * value % 7
        self.probes.append(perf_counter() - start)
        return REFERENCE_PROBE_S / statistics.median(self.probes[-window:])

    def summary(self) -> dict[str, Any]:
        return {
            "reference_probe_ms": 1e3 * REFERENCE_PROBE_S,
            "probes": len(self.probes),
            "probe_p50_ms": 1e3 * statistics.median(self.probes),
            "probe_min_ms": 1e3 * min(self.probes),
            "probe_max_ms": 1e3 * max(self.probes),
        }


class Tracer:
    """Spans and counters recorded around calls into the package.

    ``scale`` is the current op's speed factor; spans are recorded
    scaled, like the end-to-end times.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.scale = 1.0

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.record(name, perf_counter() - start)

    def record(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, []).append(seconds * self.scale)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def mean_ms(self, name: str) -> float:
        values = self.spans.get(name, [])
        return 1e3 * sum(values) / len(values) if values else 0.0

    def summary(self) -> dict[str, Any]:
        spans = {
            name: {
                "n": len(values),
                "total_s": sum(values),
                "p50_ms": 1e3 * statistics.median(values),
            }
            for name, values in sorted(self.spans.items())
        }
        return {"spans": spans, "counts": dict(sorted(self.counts.items()))}


class NullTracer(Tracer):
    """The tracer of untraced operations: calls straight through."""

    enabled = False

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def record(self, name: str, seconds: float) -> None:
        pass

    def count(self, name: str, value: float) -> None:
        pass


def report_failure(what: str) -> None:
    """A failed op is counted and the run goes on; say what broke."""
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def tracer_for(trace: bool, index: int, tracer: Tracer, null: NullTracer) -> Tracer:
    """Operations alternate traced/untraced in a traced run, so the two
    halves see the same state and their difference is the overhead."""
    return tracer if trace and index % 2 == 1 else null


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds)


def peak_rss_mb() -> float:
    """Max resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def overhead_pct(pairs: list[tuple[float, float]]) -> float:
    """Tracing overhead from (traced, untraced) pairs of like ops, as the
    median of their ratios minus one, in percent."""
    if not pairs:
        return 0.0
    return 100.0 * (statistics.median(t / u for t, u in pairs) - 1)


def consecutive_pairs(samples: list[tuple[float, bool]]) -> list[tuple[float, float]]:
    """(traced, untraced) pairs from alternating (duration, traced) ops."""
    pairs = []
    for first, second in zip(samples[::2], samples[1::2]):
        if first[1] != second[1]:
            traced, untraced = (first, second) if first[1] else (second, first)
            pairs.append((traced[0], untraced[0]))
    return pairs


def repeated_setup(
    times: int,
    build: Callable[[int], Any],
    discard: Callable[[Any], None],
    speed: Speedometer,
) -> tuple[Any, list[float]]:
    """Build the set-up ``times`` times; ``setup_s`` is the median and
    the last build is the one the timed loop runs on.  Each build is
    scaled by the probes taken just before and just after it."""
    durations: list[float] = []
    state = None
    for index in range(times):
        if state is not None:
            discard(state)
            state = None
            gc.collect()
        speed.probe()
        start = perf_counter()
        state = build(index)
        elapsed = perf_counter() - start
        durations.append(elapsed * speed.probe(window=2))
    return state, durations


def end_to_end(
    speed: Speedometer,
    tail_pct: float,
    setup_times: list[float],
    ops: float,
    elapsed: float,
    latencies: list[float],
    lookup: list[float],
    analytic: list[float],
    scan: list[float],
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics shared by every workload.

    ``tail_pct`` is fixed per workload: the highest percentile with at
    least ten samples beyond it at the rate the workload runs at when
    it is defined.  A fixed percentile keeps runs and commits
    comparable; the sample count beyond it is recorded with it.  Every
    time passed in is already scaled by ``speed``.
    """
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops / elapsed,
        "op_p50_ms": median_ms(latencies),
        "op_tail_ms": 1e3 * percentile(latencies, tail_pct),
        "peak_rss_mb": peak_rss_mb(),
        "lookup_p50_ms": median_ms(lookup),
        "analytic_p50_ms": median_ms(analytic),
        "scan_p50_ms": median_ms(scan),
    }
    details = {
        "setup_runs_s": setup_times,
        "op_samples": len(latencies),
        "op_percentiles_ms": {
            str(pct): 1e3 * percentile(latencies, pct)
            for pct in (50, 75, 90, 95, 99, 99.9)
        },
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": int(len(latencies) * (1 - tail_pct / 100.0)),
        "class_samples": {
            "lookup": len(lookup),
            "analytic": len(analytic),
            "scan": len(scan),
        },
        "elapsed_s": elapsed,
        "speed": speed.summary(),
    }
    return metrics, details
