"""``evolve``: the paper's semi-automatic designer loop, round after round.

Set-up builds a first-repair :class:`RepairSession` over a seeded
Veterans slice and TPC-H ``lineitem``, runs the cold first check and
the first (lazy, expensive) ``Relation.extend``.  One op is one round:
ingest a batch into each relation, list the violations, propose repairs
for every violated FD, and apply the ``accept_none`` policy, so every
round re-proposes the declared FDs over the grown data.
"""

from __future__ import annotations

import gc
import itertools
from pathlib import Path
from time import perf_counter

from common import (
    NullTracer,
    Outcome,
    Speedometer,
    Tracer,
    end_to_end,
    consecutive_pairs,
    overhead_pct,
    repeated_setup,
    report_failure,
    tracer_for,
)
from repro import (
    Catalog,
    Relation,
    RepairConfig,
    RepairSession,
    assess,
    find_first_repair,
)
from repro.core.session import accept_none
from repro.datagen.places import F1, F2, F3, places_relation
from repro.datagen.rng import derive_seed
from repro.datagen.tpch import generate_table, stream_table, tpch_fd
from repro.datagen.veterans import VETERANS_FD, veterans_relation

VETERANS_ROWS = 10_000
VETERANS_ATTRS = 30
#: Rows ingested per round: 0.25% of each relation, so a run grows the
#: data by a few percent and rounds stay comparable.
BATCH_ROWS = {"Veterans": 25, "lineitem": 150}
#: Batches generated at set-up; a run stops early if it uses them all.
MAX_ROUNDS = 100
#: Each round leaves reference cycles (about 2.4K objects, ~40 MB) that
#: only a full collection frees, and the large long-lived heap makes the
#: interpreter run one rarely.  A full collection every few rounds,
#: outside the timed region, keeps peak RSS independent of how many
#: rounds a run completes.
COLLECT_EVERY = 10
#: Set-up builds per run (about 8 s each).
SETUPS = 2
#: At 3.5-5 rounds/s over 15 s, p80 has 10-15 rounds beyond it.
TAIL_PCT = 80.0
#: (catalog name, metric suffix)
RELATIONS = (("Veterans", "veterans"), ("lineitem", "lineitem"))

#: Paper Section 3 measures on Places: (FD, confidence, goodness).
PLACES_GOLDEN = ((F1, 0.5, -2), (F2, 2 / 3, -1), (F3, 8 / 9, 1))


def _places_failures() -> int:
    places = places_relation()
    failures = 0
    for fd, confidence, goodness in PLACES_GOLDEN:
        measured = assess(places, fd)
        drift = abs(measured.confidence - confidence)
        if drift > 1e-9 or measured.goodness != goodness:
            failures += 1
    return failures


def _batches(rows: list, size: int) -> list[list]:
    return [rows[start : start + size] for start in range(0, len(rows), size)]


def _build(seed: int) -> dict:
    failures = _places_failures()
    extra = MAX_ROUNDS + 1  # one batch is the set-up's first extend
    veterans_all = veterans_relation(
        VETERANS_ATTRS, VETERANS_ROWS + extra * BATCH_ROWS["Veterans"], seed=seed
    )
    veterans_rows = list(veterans_all.rows())
    veterans = Relation.from_rows(veterans_all.schema, veterans_rows[:VETERANS_ROWS])
    lineitem = generate_table("lineitem", "small", seed)
    lineitem_rows = list(
        itertools.islice(
            stream_table("lineitem", "small", derive_seed(seed, "evolve-batches")),
            extra * BATCH_ROWS["lineitem"],
        )
    )
    batches = {
        "Veterans": _batches(veterans_rows[VETERANS_ROWS:], BATCH_ROWS["Veterans"]),
        "lineitem": _batches(lineitem_rows, BATCH_ROWS["lineitem"]),
    }
    catalog = Catalog()
    catalog.add_relation(veterans)
    catalog.declare_fd("Veterans", VETERANS_FD)
    catalog.add_relation(lineitem)
    catalog.declare_fd("lineitem", tpch_fd("lineitem"))
    session = RepairSession(catalog, RepairConfig.find_first())
    for name, _ in RELATIONS:  # the cold first check
        for ranked in session.violations(name):
            session.reject(name, session.propose(name, ranked.fd))
    for name, _ in RELATIONS:  # the first, lazy extend
        session.ingest(name, batches[name][0])
    return {"session": session, "batches": batches, "failures": failures}


def _round(session: RepairSession, batches: dict, index: int, tracer: Tracer):
    """One op; returns (extend, violations, propose) seconds and the
    proposals per relation."""
    spent = [0.0, 0.0, 0.0]
    proposals = {}
    for name, suffix in RELATIONS:
        start = perf_counter()
        session.ingest(name, batches[name][index])
        extended = perf_counter()
        ranked = session.violations(name)
        checked = perf_counter()
        results = [session.propose(name, item.fd) for item in ranked]
        proposed = perf_counter()
        for result in results:
            choice = accept_none(result) if result.found else None
            if choice is None:
                session.reject(name, result)
            else:
                session.accept(name, result, choice)
        spent[0] += extended - start
        spent[1] += checked - extended
        spent[2] += proposed - checked
        proposals[name] = results
        if tracer.enabled:
            tracer.record(f"relational.extend_ms.{suffix}", extended - start)
            tracer.record(f"fd.violations_ms.{suffix}", checked - extended)
            tracer.record(f"core.propose_ms.{suffix}", proposed - checked)
            _count_layers(tracer, suffix, session, name, results)
    return spent, proposals


def _count_layers(tracer, suffix, session, name, results) -> None:
    stats = session.catalog.relation(name).stats
    tracer.count(f"rounds.{suffix}", 1)
    tracer.count(f"core.nodes_explored.{suffix}", sum(r.explored for r in results))
    tracer.count(f"core.nodes_enqueued.{suffix}", sum(r.enqueued for r in results))
    tracer.count(f"stats.count_queries.{suffix}", stats.executed_count_queries)
    tracer.count(f"stats.partitions_built.{suffix}", stats.partitions_built)
    tracer.count(f"stats.partition_hits.{suffix}", stats.partition_cache_hits)
    tracer.count(f"stats.delta_hits.{suffix}", stats.delta_hits)
    tracer.count(f"stats.partition_evictions.{suffix}", stats.partition_cache_evictions)


def _check_failures(session: RepairSession, proposals: dict) -> tuple[int, int]:
    """Each relation's first proposal per FD must equal a cold
    ``find_first_repair`` on a relation rebuilt from the same rows.
    Returns (checks, failures)."""
    checks = failures = 0
    for name, _ in RELATIONS:
        relation = session.catalog.relation(name)
        rebuilt = Relation.from_rows(relation.schema, relation.rows())
        results = proposals[name]
        checks += 1
        if not results:  # both FDs are violated by construction
            failures += 1
        for result in results:
            checks += 1
            cold = find_first_repair(rebuilt, result.base, session.config)
            if cold != result.best:
                failures += 1
    return checks, failures


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for _, suffix in RELATIONS:
        rounds = tracer.counts.get(f"rounds.{suffix}", 0) or 1
        for name in ("relational.extend_ms", "fd.violations_ms", "core.propose_ms"):
            metrics[f"{name}.{suffix}"] = tracer.mean_ms(f"{name}.{suffix}")
        for name in (
            "core.nodes_explored",
            "core.nodes_enqueued",
            "stats.count_queries",
            "stats.partitions_built",
            "stats.partition_hits",
            "stats.delta_hits",
            "stats.partition_evictions",
        ):
            total = tracer.counts.get(f"{name}.{suffix}", 0)
            metrics[f"{name}.{suffix}"] = total / rounds
        hits = tracer.counts.get(f"stats.partition_hits.{suffix}", 0)
        built = tracer.counts.get(f"stats.partitions_built.{suffix}", 0)
        metrics[f"stats.partition_hit_ratio.{suffix}"] = (
            hits / (hits + built) if hits + built else 0.0
        )
    return metrics


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    speed = Speedometer()
    state, setup_times = repeated_setup(
        SETUPS, lambda _: _build(seed), lambda _: None, speed
    )
    session, batches = state["session"], state["batches"]
    attempted = len(PLACES_GOLDEN)
    failed = state["failures"]
    tracer, null = Tracer(), NullTracer()
    rounds: list[float] = []
    phases: list[list[float]] = []
    flagged: list[tuple[float, bool]] = []
    proposals: dict = {}
    collected = 0
    index = 0
    wall = 0.0
    while wall < seconds and index < MAX_ROUNDS:
        index += 1
        active = tracer_for(trace, index, tracer, null)
        active.scale = factor = speed.probe()
        attempted += 1
        start = perf_counter()
        try:
            spent, proposals = _round(session, batches, index, active)
        except Exception:  # noqa: BLE001 - counted in failed, run goes on
            report_failure(f"round {index}")
            failed += 1
            proposals = {}
            continue
        raw = perf_counter() - start
        wall += raw
        elapsed = raw * factor
        rounds.append(elapsed)
        phases.append([part * factor for part in spent])
        flagged.append((elapsed, active.enabled))
        if index == 1:
            checks, failures = _check_failures(session, proposals)
            attempted += checks
            failed += failures
        if index % COLLECT_EVERY == 0:
            collected += gc.collect()
    if proposals:
        checks, failures = _check_failures(session, proposals)
        attempted += checks
        failed += failures
    metrics, details = end_to_end(
        speed,
        TAIL_PCT,
        setup_times,
        len(rounds),
        sum(rounds),
        rounds,
        lookup=[p[1] for p in phases],
        analytic=[p[2] for p in phases],
        scan=[p[0] for p in phases],
    )
    details["rounds"] = len(rounds)
    if trace:
        metrics.update(_layer_metrics(tracer))
        metrics["trace.overhead_pct"] = overhead_pct(consecutive_pairs(flagged))
        metrics["gc.cyclic_objects_per_round"] = collected / max(len(rounds), 1)
        details["trace"] = tracer.summary()
    return Outcome(metrics, attempted, failed, details)
