"""User-facing query facade over a catalog.

``connect(catalog)`` (or ``Database(catalog)``) is the front door of
the SQL layer: one object that runs the whole parse → plan → execute
pipeline and pins per-call optimizer settings::

    db = connect(catalog)
    result = db.query("SELECT City, COUNT(*) FROM Places GROUP BY City")
    print(result.to_csv())

The facade adds no semantics of its own — :meth:`Database.query` is
``execute`` — so everything the property suite proves about the executor
holds here too.

:meth:`Database.attach_store` registers a chunked
:class:`~repro.storage.reader.StoredRelation` as a table that
:meth:`Database.query` scans chunk by chunk; a per-database cache keyed
by resolved directory opens each store once.  :meth:`Database.explain`
renders the optimized plan plus the zone-map chunk-skip counts for
store-backed scans.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.relational.catalog import Catalog
from repro.relational.relation import Relation

from .executor import (
    ResultSet,
    _well_formed,
    compile_expression,
    execute,
    execute_plan,
)
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

    @classmethod
    def from_relations(cls, *relations: Relation) -> "Database":
        """Build a database holding just the given relations."""
        catalog = Catalog()
        for relation in relations:
            catalog.add_relation(relation)
        return cls(catalog)

    def table_names(self) -> list[str]:
        """Every table a statement can read: relations and attached stores."""
        return self.catalog.table_names()

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
        return opened

    def attach_store(
        self,
        store: "Union[str, Path, StoredRelation]",
        replace: bool = False,
    ) -> "StoredRelation":
        """Register a chunked on-disk store as a queryable table.

        ``store`` may be a directory path or an open
        :class:`StoredRelation`; the opened handle is cached on the
        database, so re-attaching never re-reads the manifest or
        rebuilds remap caches.  Nothing is read here.  A taken name
        raises :class:`DuplicateRelationError` (and registers nothing)
        unless ``replace``.  Returns the open store.
        """
        opened = self._open_store(store)
        self.catalog.attach_store(opened, replace=replace)
        return opened

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, sql: str) -> ResultSet:
        """Run one SQL statement and return its :class:`ResultSet`."""
        return execute(self.catalog, sql)

    def query_plan(
        self,
        plan: "Plan | str",
        optimized: bool = True,
    ) -> "ResultSet | Plan":
        """Plans and executes, depending on the argument.

        Given SQL text, returns the **logical plan** the executor would
        run — optimized against the catalog's statistics by default,
        the raw planner output with ``optimized=False`` (this is the
        ``EXPLAIN`` surface; render it with
        :func:`repro.sql.optimize.render_plan` or
        :func:`repro.sql.plan.to_sql`).  Given an already-built
        :class:`Plan`, executes exactly that plan and returns the
        :class:`ResultSet` (the programmatic surface).
        """
        if isinstance(plan, str):
            built = plan_query(parse(plan))
            if not optimized:
                return built
            return optimize_plan(built, StatisticsProvider(catalog=self.catalog))
        return execute_plan(self.catalog, plan)

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
        """One ``scan <table>: …`` line for the plan's scan."""
        from repro.storage.sqlbridge import _surviving_chunks

        parent, node = None, plan
        while not isinstance(node, Scan):
            parent, node = node, node.source
        source = self.catalog.table(node.table)
        if isinstance(source, Relation):
            return [f"scan {node.table}: in-memory relation (no zone maps)"]
        # The executor fuses the filter directly above the scan into the
        # store scan when it is well formed.
        where = None
        if isinstance(parent, Filter):
            where = compile_expression(parent.predicate)
            where = where if _well_formed(where) else None
        skipped = source.num_chunks - len(_surviving_chunks(source, where))
        return [
            f"scan {node.table}: store-backed, zone maps skip "
            f"{skipped}/{source.num_chunks} chunks"
        ]


def connect(source: Catalog | Database) -> Database:
    """The conventional entry point: wrap a catalog in a Database."""
    if isinstance(source, Database):
        return source
    return Database(source)
