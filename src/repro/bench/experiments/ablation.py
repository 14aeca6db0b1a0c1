"""Ablation experiments beyond the paper's own tables.

Three studies, each tied to a design claim DESIGN.md calls out:

* :func:`cb_vs_eb_rows` — the comparison the paper could only do
  theoretically (§5): per violated FD, the CB one-step ranking cost
  (distinct-count queries) against the EB ranking cost (rows touched in
  cluster intersections), checking that both methods agree on which
  candidates yield exact FDs (Theorem 1's sound direction);
* :func:`backend_rows` — engine counting vs the SQL-text pipeline
  (the paper's "depends on the query plan" remark, §4.4);
* :func:`discovery_rows` — direct CB repair vs "discover then relax"
  (§2's argument against [16]): total work and whether discovery even
  surfaces an extension of the designer's FD.
"""

from __future__ import annotations

from repro.bench.timing import Timer
from repro.core.candidates import extend_by_one
from repro.core.config import RepairConfig
from repro.core.repair import find_repairs
from repro.datagen.places import places_fds, places_relation
from repro.datagen.realworld import country_spec, rental_spec
from repro.datagen.engineered import engineered_relation
from repro.discovery.tane import discover_fds
from repro.eb.repair import eb_extend_by_one
from repro.eb.entropy import EntropyCost
from repro.fd.measures import assess
from repro.sql.backend import SqlCountBackend

__all__ = [
    "cb_vs_eb_rows",
    "backend_rows",
    "discovery_rows",
    "ablation_workloads",
]


def ablation_workloads(scale: float = 0.05, seed: int = 7) -> list[tuple]:
    """(name, relation, fd) triples shared by the ablation benches."""
    workloads = [("Places." + str(fd), places_relation(), fd) for fd in places_fds()]
    for spec_fn in (country_spec, rental_spec):
        spec = spec_fn(1.0 if spec_fn is country_spec else scale, seed)
        workloads.append(
            (f"{spec.name}.{spec.fd}", engineered_relation(spec), spec.fd)
        )
    return workloads


def cb_vs_eb_rows(scale: float = 0.05, seed: int = 7) -> list[dict]:
    """One-step candidate ranking: CB cost vs EB cost, same verdicts."""
    rows = []
    for name, relation, fd in ablation_workloads(scale, seed):
        relation.stats.clear()
        with Timer() as cb_timer:
            cb_candidates = extend_by_one(relation, fd)
        cb_queries = relation.stats.executed_count_queries
        cost = EntropyCost()
        with Timer() as eb_timer:
            eb_candidates = eb_extend_by_one(relation, fd, cost=cost)
        cb_exact = {c.added[-1] for c in cb_candidates if c.is_exact}
        eb_exact = {c.attribute for c in eb_candidates if c.is_exact}
        rows.append(
            {
                "workload": name,
                "cb_seconds": cb_timer.elapsed,
                "eb_seconds": eb_timer.elapsed,
                "cb_count_queries": cb_queries,
                "eb_rows_touched": cost.rows_touched,
                "eb_intersections": cost.intersections,
                "exact_sets_agree": cb_exact == eb_exact,
                "cb_top": cb_candidates[0].added[-1] if cb_candidates else None,
                "eb_top": eb_candidates[0].attribute if eb_candidates else None,
            }
        )
    return rows


def backend_rows(scale: float = 0.05, seed: int = 7) -> list[dict]:
    """FD assessment through the engine vs through SQL text."""
    rows = []
    for name, relation, fd in ablation_workloads(scale, seed):
        relation.stats.clear()
        with Timer() as engine_timer:
            engine = assess(relation, fd)
        backend = SqlCountBackend(relation)
        with Timer() as sql_timer:
            via_sql = backend.assess(fd)
        rows.append(
            {
                "workload": name,
                "engine_seconds": engine_timer.elapsed,
                "sql_seconds": sql_timer.elapsed,
                "agree": (
                    engine.confidence == via_sql.confidence
                    and engine.goodness == via_sql.goodness
                ),
                "sql_queries": backend.queries_executed,
            }
        )
    return rows


def discovery_rows(scale: float = 0.02, seed: int = 7) -> list[dict]:
    """Direct CB repair vs discover-then-relax (§2's comparison)."""
    rows = []
    for name, relation, fd in ablation_workloads(scale, seed):
        with Timer() as repair_timer:
            result = find_repairs(relation, fd, RepairConfig.find_first())
        with Timer() as discovery_timer:
            discovered = discover_fds(relation, max_lhs_size=2)
        extensions = discovered.extensions_of(fd)
        rows.append(
            {
                "workload": name,
                "repair_seconds": repair_timer.elapsed,
                "discovery_seconds": discovery_timer.elapsed,
                "repair_found": result.found,
                "repair_explored": result.explored,
                "discovered_fds": len(discovered.fds),
                "discovered_extensions": len(extensions),
                "candidates_tested": discovered.candidates_tested,
            }
        )
    return rows

