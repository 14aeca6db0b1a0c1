"""Batch re-assessment of every stream prefix: the FD monitor's oracle.

:class:`repro.core.monitor.FDMonitor` maintains Definition 3's three
distinct-counts incrementally.  This oracle recomputes them from
scratch after each tuple — :func:`repro.fd.measures.assess` over
``σ_scope`` of the stream prefix, NULL a regular value — and derives
the alert trace the monitor's contract implies: an alert fires when
the confidence drops below the threshold from at or above it (the
monitor re-arms on recovery, so ``alerted`` is exactly
``confidence < threshold``).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.fd.fd import FunctionalDependency
from repro.fd.measures import FDAssessment, assess
from repro.relational import expr
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

__all__ = ["alert_positions", "prefix_assessments"]


def prefix_assessments(
    schema: RelationSchema,
    rows: Sequence[Sequence[Any]],
    fd: FunctionalDependency,
    scope: expr.Predicate | None = None,
) -> list[FDAssessment]:
    """``assess(σ_scope(rows[:k]), fd)`` for every ``k = 1 … len(rows)``."""
    names = schema.attribute_names
    kept: list[Sequence[Any]] = []
    out = []
    for row in rows:
        if scope is None or expr.evaluate_predicate(scope, dict(zip(names, row))):
            kept.append(row)
        out.append(assess(Relation.from_rows(schema, kept), fd, allow_nulls=True))
    return out


def alert_positions(
    assessments: Sequence[FDAssessment], threshold: float
) -> list[int]:
    """Stream positions (1-based row counts) at which an alert fires."""
    positions = []
    previous = 1.0  # the empty stream is vacuously exact
    for position, assessment in enumerate(assessments, start=1):
        if assessment.confidence < threshold <= previous:
            positions.append(position)
        previous = assessment.confidence
    return positions
