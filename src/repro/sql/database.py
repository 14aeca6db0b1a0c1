"""User-facing query facade over a catalog.

``connect(catalog)`` (or ``Database(catalog)``) is the front door of
the SQL layer: one object that runs the whole parse → plan → execute
pipeline and pins per-call engine and optimizer settings::

    db = connect(catalog)
    result = db.query("SELECT City, COUNT(*) FROM Places GROUP BY City")
    print(result.to_csv())

The facade adds no semantics of its own — :meth:`Database.query` is
``execute`` — so everything the property suite proves about the engines
holds here too.

Chunked stores attach through a per-database **store cache**:
:meth:`Database.attach_store` (and :meth:`Database.query_store`) keep
each opened :class:`~repro.storage.reader.StoredRelation` alive, keyed
by resolved directory, so repeated queries against the same store reuse
its parsed manifest, mmaps, and remap caches instead of re-opening the
directory per call.  :meth:`Database.explain` renders the optimized
plan plus the zone-map chunk-skip counts for store-backed scans.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.relational.catalog import Catalog
from repro.relational.relation import Relation

from .errors import SqlExecutionError
from .executor import ResultSet, compile_expression, execute, execute_plan
from .optimize import optimize_plan, render_plan
from .parser import parse
from .plan import Filter, Plan, Scan, plan_query, to_sql
from .stats import StatisticsProvider

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.reader import StoredRelation

__all__ = ["Database", "connect"]


class Database:
    """A catalog bound to the parse → plan → execute pipeline."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        #: Opened stores by resolved directory (the open-once cache).
        self._stores: dict[str, "StoredRelation"] = {}
        #: The same stores by relation name (query_store routing).
        self._store_names: dict[str, "StoredRelation"] = {}

    @classmethod
    def from_relations(cls, *relations: Relation) -> "Database":
        """Build a database holding just the given relations."""
        catalog = Catalog()
        for relation in relations:
            catalog.add_relation(relation)
        return cls(catalog)

    def table_names(self) -> list[str]:
        return list(self.catalog.relation_names())

    # ------------------------------------------------------------------
    # Chunked stores
    # ------------------------------------------------------------------
    def _open_store(
        self, store: "Union[str, Path, StoredRelation]"
    ) -> "StoredRelation":
        """Resolve ``store`` through the cache, opening it at most once.

        Accepts a directory path or an already-open
        :class:`StoredRelation`; either way the cached handle (warm
        manifest, mmaps, remap tables) wins over a fresh open.
        """
        from repro.storage.reader import StoredRelation, open_store

        if isinstance(store, StoredRelation):
            key = str(Path(store.directory).resolve())
            opened = self._stores.setdefault(key, store)
        else:
            key = str(Path(store).resolve())
            opened = self._stores.get(key)
            if opened is None:
                opened = open_store(store)
                self._stores[key] = opened
        self._store_names.setdefault(opened.name, opened)
        return opened

    def store(self, name: str) -> "StoredRelation":
        """The cached open store registered under ``name``."""
        try:
            return self._store_names[name]
        except KeyError:
            raise SqlExecutionError(f"no attached store named {name!r}") from None

    def attach_store(
        self,
        store: "Union[str, Path, StoredRelation]",
        where=None,
        columns=None,
        limit: int | None = None,
        replace: bool = False,
    ) -> Relation:
        """Register a chunked on-disk store as a queryable table.

        ``store`` may be a directory path or an open
        :class:`StoredRelation`; the opened handle is cached on the
        database, so re-attaching (or :meth:`query_store`) never
        re-reads the manifest or rebuilds remap caches.  The store is
        scanned chunk-at-a-time with the optional filter pushed down
        (:func:`repro.storage.sqlbridge.scan_store`), so only surviving
        rows are ever materialized; the resulting relation joins the
        catalog under the store's name and is returned.  Pass
        ``where``/``columns``/``limit`` to bound the resident slice of
        a store larger than RAM.
        """
        from repro.storage.sqlbridge import scan_store

        opened = self._open_store(store)
        relation = scan_store(opened, where=where, columns=columns, limit=limit)
        self.catalog.add_relation(relation, replace=replace)
        return relation

    def query_store(
        self,
        sql: str,
        engine: str = "columnar",
        scan_stats=None,
    ) -> ResultSet:
        """Run one single-table statement straight off its attached store.

        The FROM table is resolved through the store cache (no
        re-open); WHERE and the referenced columns push down into the
        chunked scan, zone maps skip refuted chunks, and only the
        survivors are materialized.  ``scan_stats`` (a
        :class:`~repro.storage.sqlbridge.ScanStats`) receives the skip
        counters.
        """
        from repro.storage.sqlbridge import query_store

        query = parse(sql)
        return query_store(
            self.store(query.table),
            sql,
            engine=engine,
            scan_stats=scan_stats,
        )

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        sql: str,
        engine: str = "columnar",
        optimize: str | None = None,
    ) -> ResultSet:
        """Run one SQL statement and return its :class:`ResultSet`.

        ``optimize`` (``"on"``/``"off"``) scopes the query optimizer for
        this call only (``None`` keeps the process-wide setting).
        """
        return execute(self.catalog, sql, engine, optimize=optimize)

    def query_plan(
        self,
        plan: "Plan | str",
        engine: str = "columnar",
        optimized: bool = True,
    ) -> "ResultSet | Plan":
        """Plans and executes, depending on the argument.

        Given SQL text, returns the **logical plan** the executor would
        run — optimized against the catalog's statistics by default,
        the raw planner output with ``optimized=False`` (this is the
        ``EXPLAIN`` surface; render it with
        :func:`repro.sql.optimize.render_plan` or
        :func:`repro.sql.plan.to_sql`).  Given an already-built
        :class:`Plan`, executes it and returns the :class:`ResultSet`
        (the programmatic surface, unchanged).
        """
        if isinstance(plan, str):
            built = plan_query(parse(plan))
            if not optimized:
                return built
            return optimize_plan(built, StatisticsProvider(catalog=self.catalog))
        return execute_plan(self.catalog, plan, engine)

    def explain(self, sql: str) -> str:
        """The optimized plan for ``sql``, as text, with scan effects.

        Three sections: the plan re-rendered as SQL (:func:`to_sql`),
        the operator tree (:func:`render_plan`), and — for each scan
        whose table is an attached store — the zone-map verdict: how
        many chunks the pushed-down predicate skips, without reading
        any of them.
        """
        plan = self.query_plan(sql, optimized=True)
        lines = [to_sql(plan), "", render_plan(plan).rstrip("\n")]
        scans = self._scan_reports(plan)
        if scans:
            lines.append("")
            lines.extend(scans)
        return "\n".join(lines) + "\n"

    def _scan_reports(self, plan: Plan) -> list[str]:
        """One ``scan <table>: …`` line per leftmost scan of the plan."""
        from repro.storage.sqlbridge import count_skippable_chunks

        node = plan
        pushed: list = []
        while not isinstance(node, Scan):
            if isinstance(node, Filter):
                pushed.append(node.predicate)
            else:
                pushed = []  # residual/having filters are not on the scan
            node = node.source
        store = self._store_names.get(node.table)
        if store is None:
            return [f"scan {node.table}: in-memory relation (no zone maps)"]
        # Innermost pushed filter first — the order scan_store tests them.
        predicates = [compile_expression(p) for p in reversed(pushed)]
        where = None
        for predicate in predicates:
            where = predicate if where is None else _ir_and(where, predicate)
        stats = count_skippable_chunks(store, where)
        return [
            f"scan {node.table}: store-backed, zone maps skip "
            f"{stats.chunks_skipped}/{stats.chunks_total} chunks"
        ]


def _ir_and(left, right):
    from repro.relational import expr as ir

    return ir.And(left, right)


def connect(source: Catalog | Database) -> Database:
    """The conventional entry point: wrap a catalog in a Database."""
    if isinstance(source, Database):
        return source
    return Database(source)
