"""``repro-fd`` — the command-line equivalent of the paper's prototype tool.

The paper's Java tool lets a user connect to a database, view relations
and their FDs, add FDs, and start validation (Section 6).  This CLI
covers the same workflow over a catalog directory (CSV files + a JSON
manifest, see :class:`repro.relational.Catalog`):

.. code-block:: console

   $ repro-fd init DB                     # create a catalog with the Places demo
   $ repro-fd show DB                     # relations + declared FDs
   $ repro-fd declare DB Places '[Zip] -> [City]'
   $ repro-fd validate DB                 # which FDs are violated, ranked
   $ repro-fd repair DB Places --all      # propose repairs per violated FD
   $ repro-fd evolve DB Places            # accept best repairs, rewrite catalog
   $ repro-fd query DB 'SELECT COUNT(DISTINCT Zip) FROM Places'
   $ repro-fd import DB data.csv          # add a relation from CSV

Beyond the paper's workflow, the extended subsystems are reachable too:

.. code-block:: console

   $ repro-fd conflicts DB Places         # conflict graph of the declared FDs
   $ repro-fd clean DB Places --mode delete   # extensional repair preview
   $ repro-fd advise DB Places            # §6.3 index recommendations
   $ repro-fd keys DB Places              # candidate keys under declared FDs
   $ repro-fd normalize DB Places --form 3nf  # decomposition proposal
   $ repro-fd mine DB Places --max-size 3     # denial-constraint discovery
   $ repro-fd serve STATE --spec t.json < batches.ndjson  # monitoring service
   $ repro-fd replay STATE --tenant acme  # durable event stream from the WAL

Every subcommand returns a process exit code of 0 on success, 1 on a
domain error (unknown relation, malformed FD, …), making the tool
scriptable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.tables import render_rows
from repro.core.config import RepairConfig
from repro.core.repair import find_repairs
from repro.core.session import RepairSession, accept_best
from repro.core.validate import validate_catalog
from repro.datagen.places import places_catalog
from repro.fd.fd import FunctionalDependency
from repro.relational.catalog import Catalog
from repro.relational.csvio import load_csv
from repro.relational.errors import ReproError
from repro.sql.executor import execute

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-fd`` argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="repro-fd",
        description=(
            "Detect violated functional dependencies and evolve them by "
            "extending their antecedents (EDBT 2016 CB method)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="create a new catalog directory")
    init.add_argument("catalog", type=Path)
    init.add_argument(
        "--empty", action="store_true", help="do not seed the Places demo relation"
    )

    show = sub.add_parser("show", help="list relations and declared FDs")
    show.add_argument("catalog", type=Path)

    declare = sub.add_parser("declare", help="declare an FD on a relation")
    declare.add_argument("catalog", type=Path)
    declare.add_argument("relation")
    declare.add_argument("fd", help="e.g. '[District, Region] -> [AreaCode]'")

    validate = sub.add_parser("validate", help="check all declared FDs")
    validate.add_argument("catalog", type=Path)
    validate.add_argument(
        "--witnesses", type=int, default=0, help="show up to N violating tuple pairs"
    )

    repair = sub.add_parser("repair", help="propose repairs for violated FDs")
    repair.add_argument("catalog", type=Path)
    repair.add_argument("relation")
    repair.add_argument("--fd", help="repair only this FD (default: every violated one)")
    repair.add_argument("--all", action="store_true", help="find all repairs, not just the first")
    repair.add_argument("--max-attrs", type=int, default=None, help="bound on added attributes")
    repair.add_argument(
        "--goodness-threshold", type=int, default=None,
        help="privilege repairs with |goodness| under this threshold",
    )
    repair.add_argument("--top", type=int, default=10, help="show at most N repairs per FD")

    evolve = sub.add_parser(
        "evolve", help="accept the best repair for every violated FD and save"
    )
    evolve.add_argument("catalog", type=Path)
    evolve.add_argument("relation")

    explain = sub.add_parser(
        "explain", help="draw the Figure 2 clustering diagram for an FD"
    )
    explain.add_argument("catalog", type=Path)
    explain.add_argument("relation")
    explain.add_argument("fd", help="e.g. '[District, Region] -> [AreaCode]'")
    explain.add_argument(
        "--repair",
        help="also show the before/after diagram for this repaired FD",
    )

    query = sub.add_parser("query", help="run a SELECT against the catalog")
    query.add_argument("catalog", type=Path)
    query.add_argument("sql")
    query.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV instead of the aligned text table",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized plan (SQL + operator tree + zone-map "
        "chunk-skip counts) instead of executing",
    )

    import_cmd = sub.add_parser("import", help="add a relation from a CSV file")
    import_cmd.add_argument("catalog", type=Path)
    import_cmd.add_argument("csv", type=Path)
    import_cmd.add_argument("--name", help="relation name (default: file stem)")

    conflicts = sub.add_parser(
        "conflicts", help="show the conflict graph of the declared FDs"
    )
    conflicts.add_argument("catalog", type=Path)
    conflicts.add_argument("relation")
    conflicts.add_argument(
        "--witnesses", type=int, default=5, help="show up to N conflicts"
    )

    clean = sub.add_parser(
        "clean", help="preview an extensional (data-changing) repair"
    )
    clean.add_argument("catalog", type=Path)
    clean.add_argument("relation")
    clean.add_argument(
        "--mode",
        choices=["delete", "update"],
        default="delete",
        help="tuple deletion (min vertex cover) or cell updates (majority)",
    )

    advise = sub.add_parser(
        "advise", help="recommend indexes from the exact declared FDs (§6.3)"
    )
    advise.add_argument("catalog", type=Path)
    advise.add_argument("relation")

    keys = sub.add_parser(
        "keys", help="candidate keys of a relation under its declared FDs"
    )
    keys.add_argument("catalog", type=Path)
    keys.add_argument("relation")

    normalize = sub.add_parser(
        "normalize", help="propose a BCNF/3NF decomposition from declared FDs"
    )
    normalize.add_argument("catalog", type=Path)
    normalize.add_argument("relation")
    normalize.add_argument(
        "--form", choices=["bcnf", "3nf"], default="bcnf", help="target normal form"
    )

    mine = sub.add_parser(
        "mine", help="mine minimal denial constraints (the [16] alternative)"
    )
    mine.add_argument("catalog", type=Path)
    mine.add_argument("relation")
    mine.add_argument("--max-size", type=int, default=3, help="max predicates per DC")
    mine.add_argument(
        "--max-pairs",
        type=int,
        default=100_000,
        help="pair-sample budget (the result is exact whatever the budget)",
    )
    mine.add_argument(
        "--fds-only", action="store_true", help="show only FD-shaped constraints"
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant monitoring service over NDJSON batches",
        description=(
            "Reads one JSON object per line from stdin (or --input): "
            '{"tenant": ID, "batch": N, "rows": [[...], ...]} and writes '
            "one JSON event per line to stdout.  State (tenant specs, "
            "write-ahead logs, checkpoints) lives under STATE_DIR; "
            "restarting the command replays the WAL and continues "
            "exactly where the previous run stopped."
        ),
    )
    serve.add_argument("state_dir", type=Path)
    serve.add_argument(
        "--spec",
        type=Path,
        action="append",
        default=[],
        metavar="FILE",
        help="register a tenant from a TenantSpec JSON file "
        "(repeatable; tenants already in STATE_DIR are recovered "
        "automatically)",
    )
    serve.add_argument(
        "--input",
        type=Path,
        default=None,
        metavar="FILE",
        help="read batches from FILE instead of stdin",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="bounded per-tenant ingest queue (backpressure beyond it)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=50, metavar="N",
        help="snapshot checkpoint cadence, in applied batches",
    )
    serve.add_argument(
        "--sync",
        choices=("batch", "none"),
        default="batch",
        help="fsync the WAL per commit (batch) or leave it to the OS",
    )
    serve.add_argument(
        "--retain-segments",
        action="store_true",
        help="keep WAL segments past checkpoints (enables full `replay`)",
    )

    replay = sub.add_parser(
        "replay",
        help="print a tenant's durable event stream from its WAL",
        description=(
            "Reconstructs the alert/drift/shed event stream that `serve` "
            "durably journaled, one JSON event per line — the same "
            "stream the crash-recovery oracle compares byte-for-byte."
        ),
    )
    replay.add_argument("state_dir", type=Path)
    replay.add_argument(
        "--tenant", help="replay only this tenant (default: every tenant)"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    handlers = {
        "init": _cmd_init,
        "show": _cmd_show,
        "declare": _cmd_declare,
        "validate": _cmd_validate,
        "repair": _cmd_repair,
        "evolve": _cmd_evolve,
        "explain": _cmd_explain,
        "query": _cmd_query,
        "import": _cmd_import,
        "conflicts": _cmd_conflicts,
        "clean": _cmd_clean,
        "advise": _cmd_advise,
        "keys": _cmd_keys,
        "normalize": _cmd_normalize,
        "mine": _cmd_mine,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
    }
    return handlers[args.command](args)


def _load(path: Path) -> Catalog:
    return Catalog.load(path)


def _cmd_init(args: argparse.Namespace) -> int:
    catalog = Catalog() if args.empty else places_catalog()
    catalog.save(args.catalog)
    print(f"created catalog at {args.catalog} ({len(catalog)} relation(s))")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    for name in catalog.relation_names():
        relation = catalog.relation(name)
        print(f"{name}: {relation.arity} attributes, {relation.num_rows} rows")
        print(f"  attributes: {', '.join(relation.attribute_names)}")
        for fd in catalog.fds(name):
            print(f"  FD: {fd}")
    if not catalog.relation_names():
        print("(empty catalog)")
    return 0


def _cmd_declare(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    fd = FunctionalDependency.parse(args.fd)
    catalog.declare_fd(args.relation, fd)
    catalog.save(args.catalog)
    print(f"declared {fd} on {args.relation}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    reports = validate_catalog(catalog, witness_limit=args.witnesses)
    if not reports:
        print("no FDs declared")
        return 0
    violated_total = 0
    for name, report in reports.items():
        for entry in report.entries:
            print(entry)
            for pair in entry.witnesses:
                t1, t2 = pair
                print(f"    witness rows: {t1} vs {t2}")
        violated_total += len(report.violated)
    print(f"{violated_total} violated FD(s)")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    config = RepairConfig(
        stop_at_first=not args.all,
        max_added_attributes=args.max_attrs,
        goodness_threshold=args.goodness_threshold,
    )
    if args.fd:
        fds = [FunctionalDependency.parse(args.fd)]
    else:
        session = RepairSession(catalog, config)
        fds = [item.fd for item in session.violations(args.relation)]
        if not fds:
            print("no violated FDs")
            return 0
    for fd in fds:
        result = find_repairs(relation, fd, config)
        if not result.was_violated:
            print(f"{fd}: satisfied (nothing to repair)")
            continue
        print(f"{fd}: violated (c={result.assessment.confidence:.4g})")
        if not result.found:
            print("  no repair found")
            continue
        rows = [
            {
                "repaired fd": str(candidate.fd),
                "added": ", ".join(candidate.added),
                "confidence": candidate.confidence,
                "goodness": candidate.goodness,
            }
            for candidate in result.all_repairs[: args.top]
        ]
        print(render_rows(rows))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    session = RepairSession(catalog)
    events = session.run(args.relation, accept_best)
    for event in events:
        print(event)
    catalog.save(args.catalog)
    print(f"catalog saved to {args.catalog}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.fd.diagram import explain_repair, render_fd_diagram

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    fd = FunctionalDependency.parse(args.fd)
    if args.repair:
        repaired = FunctionalDependency.parse(args.repair)
        print(explain_repair(relation, fd, repaired))
    else:
        print(render_fd_diagram(relation, fd))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    if args.explain:
        from repro.sql.database import Database

        print(Database(catalog).explain(args.sql), end="")
        return 0
    result = execute(catalog, args.sql)
    if args.csv:
        print(result.to_csv(), end="")
    else:
        print(result.to_text())
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    catalog = _load(args.catalog)
    relation = load_csv(args.csv, name=args.name)
    catalog.add_relation(relation)
    catalog.save(args.catalog)
    print(
        f"imported {relation.name!r}: {relation.arity} attributes, "
        f"{relation.num_rows} rows"
    )
    return 0


def _cmd_conflicts(args: argparse.Namespace) -> int:
    from repro.datarepair.conflicts import build_conflict_graph

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    fds = catalog.fds(args.relation)
    if not fds:
        print(f"no FDs declared on {args.relation}")
        return 0
    graph = build_conflict_graph(relation, list(fds))
    print(
        f"{args.relation}: {graph.num_edges} conflicting pair(s) across "
        f"{len(graph.fds)} FD(s); {len(graph.clean_rows())} of "
        f"{relation.num_rows} tuples conflict-free"
    )
    for conflict in graph.conflicts[: args.witnesses]:
        print(f"  {conflict}")
    if graph.num_conflicts > args.witnesses:
        print(f"  ... ({graph.num_conflicts - args.witnesses} more)")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    from repro.datarepair.deletion import minimum_deletion_repair
    from repro.datarepair.update import value_update_repair

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    fds = list(catalog.fds(args.relation))
    if not fds:
        print(f"no FDs declared on {args.relation}")
        return 0
    if args.mode == "delete":
        repair = minimum_deletion_repair(relation, fds)
        print(f"{args.relation}: {repair}")
        if repair.deleted_rows:
            print(f"  would delete rows: {list(repair.deleted_rows)}")
    else:
        repair = value_update_repair(relation, fds)
        print(f"{args.relation}: {repair}")
        for change in repair.changes[:10]:
            print(f"  {change}")
        if repair.num_changes > 10:
            print(f"  ... ({repair.num_changes - 10} more)")
    print(
        "(preview only — the paper's method evolves the constraint instead; "
        "see `repro-fd evolve`)"
    )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.advisor.advisor import recommend_indexes

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    fds = list(catalog.fds(args.relation))
    if not fds:
        print(f"no FDs declared on {args.relation}")
        return 0
    print(recommend_indexes(relation, fds))
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    from repro.design.normalize import candidate_keys

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    fds = list(catalog.fds(args.relation))
    keys = candidate_keys(relation.attribute_names, fds)
    print(f"{args.relation}: {len(keys)} candidate key(s) under {len(fds)} FD(s)")
    for key in keys:
        print(f"  {{{', '.join(sorted(key))}}}")
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    from repro.design.normalize import decompose_bcnf, synthesize_3nf

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    fds = list(catalog.fds(args.relation))
    if not fds:
        print(f"no FDs declared on {args.relation}; nothing to normalize by")
        return 0
    if args.form == "bcnf":
        result = decompose_bcnf(relation.attribute_names, fds)
    else:
        result = synthesize_3nf(relation.attribute_names, fds)
    print(f"{args.relation} -> {args.form.upper()} fragments:")
    for fragment in result.fragments:
        print(f"  ({', '.join(fragment)})")
    if result.lost:
        print("dependencies NOT preserved:")
        for fd in result.lost:
            print(f"  {fd}")
    else:
        print("all dependencies preserved")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.dc.bridge import dc_to_fd
    from repro.dc.engine import discover_dcs
    from repro.dc.predicates import build_predicate_space

    catalog = _load(args.catalog)
    relation = catalog.relation(args.relation)
    space = build_predicate_space(relation, order_predicates=False)
    result = discover_dcs(
        relation,
        space,
        max_size=args.max_size,
        sample_pairs=args.max_pairs,
    )
    shown = 0
    for dc in result.constraints:
        fd = dc_to_fd(dc)
        if args.fds_only and fd is None:
            continue
        print(f"  {fd if fd is not None else dc}")
        shown += 1
    print(
        f"{shown} constraint(s) shown of {result.num_constraints} mined "
        f"from {result.evidence_pairs} pairs"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import MonitorService, ServiceConfig, TenantSpec
    from repro.service.events import to_json

    config = ServiceConfig(
        state_dir=args.state_dir,
        queue_capacity=args.queue_capacity,
        checkpoint_every=args.checkpoint_every,
        sync=args.sync,
        retain_segments=args.retain_segments,
    )

    def emit(event) -> None:
        print(json.dumps(to_json(event), sort_keys=True), flush=True)

    async def run() -> int:
        service = MonitorService(config, on_event=emit)
        await service.start()
        for spec_path in args.spec:
            spec = TenantSpec.from_json(
                json.loads(spec_path.read_text(encoding="utf-8"))
            )
            if spec.tenant_id not in service.tenant_ids:
                service.add_tenant(spec)
        stream = (
            open(args.input, encoding="utf-8") if args.input else sys.stdin
        )
        loop = asyncio.get_running_loop()
        submitted = 0
        try:
            while True:
                line = await loop.run_in_executor(None, stream.readline)
                if not line:
                    break
                if not line.strip():
                    continue
                batch = json.loads(line)
                await service.submit(
                    batch["tenant"], batch["batch"], batch["rows"]
                )
                submitted += 1
        finally:
            if args.input:
                stream.close()
        await service.drain()
        await service.stop()
        print(
            f"served {submitted} batch(es) across "
            f"{len(service.tenant_ids)} tenant(s)",
            file=sys.stderr,
        )
        return 0

    return asyncio.run(run())


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.service.errors import UnknownTenantError
    from repro.service.wal import read_event_stream

    state_dir: Path = args.state_dir
    tenants = sorted(
        path.name
        for path in state_dir.iterdir()
        if (path / "spec.json").is_file()
    ) if state_dir.is_dir() else []
    if args.tenant is not None:
        if args.tenant not in tenants:
            raise UnknownTenantError(args.tenant)
        tenants = [args.tenant]
    total = 0
    for tenant in tenants:
        for event in read_event_stream(state_dir / tenant, tenant):
            print(json.dumps(event, sort_keys=True))
            total += 1
    print(f"{total} event(s) from {len(tenants)} tenant(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
