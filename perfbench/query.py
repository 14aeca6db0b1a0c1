"""``query``: a seeded SQL statement stream over memory and a chunked store.

Set-up generates the TPC-H ``small`` catalog, writes ``lineitem`` as a
chunked on-disk store (512-row chunks), builds the statement stream
and runs it once (the warm pass, because users re-query).  The stream
interleaves :func:`repro.datagen.generate_workload` statements over the
in-memory catalog with ``query_store`` statements against the store:
selective ``orderkey`` probes that the zone maps narrow to a chunk or
two, and non-selective filters and GROUP BYs that skip nothing.  One op
is one statement; a run repeats the stream in whole cycles.

The in-memory statements are stratified: ``generate_workload`` runs once
per (table, kind) over a catalog holding only that table (or join
pair), so the seed picks columns and literals but never which tables a
stream hits.  Statement cost depends mostly on the table (a point
lookup on ``nation`` and a GROUP BY on ``lineitem`` differ 300-fold),
and a fixed mix keeps the class medians comparable across seeds.
"""

from __future__ import annotations

import random
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from common import (
    NullTracer,
    Outcome,
    Speedometer,
    Tracer,
    end_to_end,
    overhead_pct,
    repeated_setup,
    report_failure,
    tracer_for,
)
from repro.datagen.queries import generate_workload
from repro.relational.catalog import Catalog
from repro.datagen.rng import derive_seed
from repro.datagen.tpch import generate_tpch
from repro.sql import (
    StatisticsProvider,
    execute,
    execute_plan,
    optimize_plan,
    parse,
    plan_query,
)
from repro.storage import open_store, write_store
from repro.storage.sqlbridge import ScanStats, query_store, scan_store

#: Lookup kinds: one statement per (table, kind).
LOOKUP_TABLES = ("customer", "lineitem", "orders", "part", "partsupp", "supplier")
LOOKUP_KINDS = ("point", "fd_fetch", "range")
#: Analytic kinds: three statements per (table, kind), plus joins.  The
#: tables span small (customer), medium (orders, partsupp) and large
#: (lineitem) so the class median falls inside the medium cluster.
ANALYTIC_TABLES = ("customer", "lineitem", "orders", "partsupp")
ANALYTIC_KINDS = ("aggregate", "topk")
ANALYTIC_PER_TABLE = 3
#: (fact, dimension) pairs, six joins each.
JOIN_PAIRS = (("orders", "customer"), ("partsupp", "part"), ("lineitem", "supplier"))
JOINS_PER_PAIR = 6
#: Of each probe shape (point and a fixed 64-key range).  Probes cost
#: about the same, and there are more of them than in-memory statements
#: in either class, so the median statement and the median lookup both
#: fall inside the probe cluster rather than between two clusters.
PROBES = 30
PROBE_SPAN = 64
#: Seeds ``generate_workload`` per stratum.  It is fixed, so every run
#: issues the same statement shapes (columns, functions, LIMITs), like
#: the fixed query templates of TPC-H; ``--seed`` generates the data,
#: and literals are drawn from the data, so they vary with it.  With
#: the shapes drawn per seed, the analytic median spread by a quarter
#: of its value between seeds.
STATEMENT_SEED = 12
#: Of each scan shape.  Three shapes of similar cost, so the scan
#: median is the middle shape's and never a gap between two shapes.
SCANS = 2
CHUNK_ROWS = 512
#: A store statement that skips at least this share of chunks is a
#: lookup; below it, a scan.
LOOKUP_SKIP_RATIO = 0.5
#: Three or four cycles of 132 statements in 15 s: p97 has 12-16 beyond
#: it, and the 6 scans per cycle (4.5%) put it inside the scan cluster.
TAIL_PCT = 97.0
#: Set-up builds per run (about 10 s each).
SETUPS = 2


@dataclass(frozen=True)
class Statement:
    sql: str
    kind: str
    #: Store statements only: the pushed-down WHERE and the columns the
    #: statement references, in schema order (what ``query_store`` scans).
    where: str | None = None
    columns: tuple[str, ...] = ()

    @property
    def on_store(self) -> bool:
        return self.kind == "store"


def _sub_catalog(catalog: Catalog, tables: tuple[str, ...]) -> Catalog:
    sub = Catalog()
    for table in tables:
        sub.add_relation(catalog.relation(table))
        for fd in catalog.fds(table):
            sub.declare_fd(table, fd)
    return sub


def _in_memory_statements(catalog: Catalog) -> list[Statement]:
    strata = [((table,), kind, 1) for table in LOOKUP_TABLES for kind in LOOKUP_KINDS]
    strata += [
        ((table,), kind, ANALYTIC_PER_TABLE)
        for table in ANALYTIC_TABLES
        for kind in ANALYTIC_KINDS
    ]
    strata += [(pair, "join", JOINS_PER_PAIR) for pair in JOIN_PAIRS]
    statements = []
    for tables, kind, count in strata:
        queries = generate_workload(
            _sub_catalog(catalog, tables),
            count,
            derive_seed(STATEMENT_SEED, kind, *tables),
            kinds=(kind,),
        )
        statements += [Statement(query.sql, query.kind) for query in queries]
    return statements


def _store_statements(rng: random.Random, first_key: int, last_key: int) -> list:
    statements = []
    for _ in range(PROBES):
        key = rng.randint(first_key, last_key)
        where = f"orderkey = {key}"
        statements.append(
            Statement(
                f"SELECT orderkey, partkey, suppkey, quantity FROM lineitem "
                f"WHERE {where}",
                "store",
                where,
                ("orderkey", "partkey", "suppkey", "quantity"),
            )
        )
        key = rng.randint(first_key, last_key)
        where = f"orderkey >= {key} AND orderkey < {key + PROBE_SPAN}"
        statements.append(
            Statement(
                f"SELECT COUNT(*), SUM(quantity) FROM lineitem WHERE {where}",
                "store",
                where,
                ("orderkey", "quantity"),
            )
        )
    for _ in range(SCANS):
        where = f"quantity >= {rng.randint(1, 3)}"
        statements.append(
            Statement(
                f"SELECT returnflag, linestatus, COUNT(*), SUM(quantity) "
                f"FROM lineitem WHERE {where} GROUP BY returnflag, linestatus",
                "store",
                where,
                ("quantity", "returnflag", "linestatus"),
            )
        )
        where = f"discount <= {rng.choice((0.05, 0.1))}"
        statements.append(
            Statement(
                f"SELECT shipmode, COUNT(*), MAX(extendedprice) FROM lineitem "
                f"WHERE {where} GROUP BY shipmode",
                "store",
                where,
                ("extendedprice", "discount", "shipmode"),
            )
        )
        where = f"tax <= 0.08 AND quantity >= {rng.randint(1, 5)}"
        statements.append(
            Statement(
                f"SELECT orderkey, linenumber, quantity FROM lineitem WHERE {where}",
                "store",
                where,
                ("orderkey", "linenumber", "quantity", "tax"),
            )
        )
    return statements


def _build(seed: int, workdir: Path, index: int) -> dict:
    catalog = generate_tpch("small", seed=seed)
    directory = workdir / f"store-{index}"
    write_store(catalog.relation("lineitem"), directory, chunk_rows=CHUNK_ROWS)
    opened = perf_counter()
    store = open_store(directory)
    open_s = perf_counter() - opened
    stream = _in_memory_statements(catalog)
    rng = random.Random(derive_seed(seed, "query-stream"))
    first_key = store.chunk_zone("orderkey", 0).min_value
    last_key = store.chunk_zone("orderkey", store.num_chunks - 1).max_value
    stream += _store_statements(rng, first_key, last_key)
    rng.shuffle(stream)
    state = {"catalog": catalog, "store": store, "stream": stream, "open_s": open_s}
    for statement in stream:  # the warm pass
        _execute(state, statement, NullTracer(), ScanStats())
    return state


def _discard(state: dict) -> None:
    state["store"].close()
    shutil.rmtree(state["store"].directory)


def _execute(state: dict, statement: Statement, tracer: Tracer, stats: ScanStats):
    """Run one statement; traced statements go through the staged
    pipeline (in memory) or record the scan split (store)."""
    catalog = state["catalog"]
    if statement.on_store:
        return query_store(state["store"], statement.sql, scan_stats=stats)
    if not tracer.enabled:
        return execute(catalog, statement.sql)
    query = tracer.call("sql.parse_ms", parse, statement.sql)
    plan = tracer.call("sql.plan_ms", plan_query, query)
    provider = StatisticsProvider(catalog=catalog)
    optimized = tracer.call("sql.optimize_ms", optimize_plan, plan, provider)
    return tracer.call(
        "sql.execute_ms", execute_plan, catalog, optimized, "columnar", "off"
    )


def _trace_store(state: dict, statement: Statement, elapsed: float, tracer: Tracer):
    """Time ``scan_store`` alone, outside the op, to split the statement
    into its scan and what runs on the survivors."""
    stats = ScanStats()
    start = perf_counter()
    scanned = scan_store(
        state["store"], where=statement.where, columns=statement.columns, stats=stats
    )
    scan_s = perf_counter() - start
    tracer.record("storage.scan_ms", scan_s)
    tracer.record("storage.post_scan_ms", elapsed - scan_s)
    tracer.count("storage.statements", 1)
    tracer.count("storage.rows_materialized", scanned.num_rows)
    tracer.count("storage.chunks_total", stats.chunks_total)
    tracer.count("storage.chunks_skipped", stats.chunks_skipped)


def _same(left, right) -> bool:
    return left.columns == right.columns and left.rows == right.rows


def _check_failures(state: dict, first_cycle: dict) -> tuple[int, int]:
    """Check each statement's first-cycle result against the other path.

    A store statement must equal the same SQL over the in-memory
    relation.  An in-memory statement's staged result (traced) must
    equal ``execute()`` (untraced), whichever of the two the op ran.
    """
    catalog, failures = state["catalog"], 0
    for position, (result, staged) in first_cycle.items():
        statement = state["stream"][position]
        if statement.on_store or staged:
            other = execute(catalog, statement.sql)
        else:
            other = _execute(state, statement, Tracer(), ScanStats())
        failures += not _same(result, other)
    return len(first_cycle), failures


def _layer_metrics(state: dict, tracer: Tracer) -> dict[str, float]:
    counts = tracer.counts
    statements = counts.get("storage.statements", 0) or 1
    total = counts.get("storage.chunks_total", 0)
    skipped = counts.get("storage.chunks_skipped", 0)
    rows = counts.get("storage.rows_materialized", 0)
    metrics = {
        name: tracer.mean_ms(name)
        for name in (
            "sql.parse_ms",
            "sql.plan_ms",
            "sql.optimize_ms",
            "sql.execute_ms",
            "storage.scan_ms",
            "storage.post_scan_ms",
        )
    }
    metrics.update(
        {
            "storage.rows_materialized": rows / statements,
            "storage.chunks_total": total / statements,
            "storage.chunks_skipped": skipped / statements,
            "storage.skip_ratio": skipped / total if total else 0.0,
            "storage.open_ms": 1e3 * state["open_s"],
        }
    )
    return metrics


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    speed = Speedometer()
    state, setup_times = repeated_setup(
        SETUPS, lambda index: _build(seed, workdir, index), _discard, speed
    )
    stream = state["stream"]
    tracer, null = Tracer(), NullTracer()
    latencies: list[float] = []
    classes: dict[str, list[float]] = {"lookup": [], "analytic": [], "scan": []}
    #: position -> (traced, untraced) durations, for the overhead
    by_position: dict[int, tuple[list[float], list[float]]] = {}
    first_cycle: dict[int, tuple] = {}
    attempted = failed = 0
    cycle = 0
    wall = 0.0
    while wall < seconds and (cycle == 0 or latencies):
        for position, statement in enumerate(stream):
            active = tracer_for(trace, position + cycle, tracer, null)
            active.scale = factor = speed.probe()
            stats = ScanStats()
            attempted += 1
            start = perf_counter()
            try:
                result = _execute(state, statement, active, stats)
            except Exception:  # noqa: BLE001 - counted in failed, run goes on
                report_failure(statement.sql)
                failed += 1
                continue
            raw = perf_counter() - start
            wall += raw
            elapsed = raw * factor
            latencies.append(elapsed)
            timings = by_position.setdefault(position, ([], []))
            timings[0 if active.enabled else 1].append(elapsed)
            if cycle == 0:
                first_cycle[position] = (result, active.enabled)
            if statement.on_store:
                skipped = stats.chunks_skipped / stats.chunks_total
                kind = "lookup" if skipped >= LOOKUP_SKIP_RATIO else "scan"
                if active.enabled:
                    _trace_store(state, statement, raw, active)
            else:
                kind = "lookup" if statement.kind in LOOKUP_KINDS else "analytic"
            classes[kind].append(elapsed)
        cycle += 1
    checks, failures = _check_failures(state, first_cycle)
    attempted += checks
    failed += failures
    metrics, details = end_to_end(
        speed,
        TAIL_PCT,
        setup_times,
        len(latencies),
        sum(latencies),
        latencies,
        lookup=classes["lookup"],
        analytic=classes["analytic"],
        scan=classes["scan"],
    )
    details.update(cycles=cycle, statements_per_cycle=len(stream))
    if trace:
        metrics.update(_layer_metrics(state, tracer))
        pairs = [
            (statistics.median(traced), statistics.median(untraced))
            for traced, untraced in by_position.values()
            if traced and untraced
        ]
        metrics["trace.overhead_pct"] = overhead_pct(pairs)
        details["trace"] = tracer.summary()
    _discard(state)
    return Outcome(metrics, attempted, failed, details)
