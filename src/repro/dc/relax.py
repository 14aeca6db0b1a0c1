"""The "discover then relax" workflow the paper argues against (§2).

To update obsolete constraints via discovery one must "(i) first
discover all the possible constraints from data, then (ii) relax the
constraints … that do not hold on the current instance", and the paper
observes this is impractical because (a) discovery cost is exponential
in arity and (b) "the inferred constraints not always include
extensions of the ones specified by the designer".

:func:`discover_then_relax` executes the workflow end to end so both
observations become measurable, and pairs each designer FD with the
verdict:

* ``already_valid`` — the FD holds; nothing to do;
* ``extension_found`` — a mined constraint extends the FD's antecedent
  (same consequent, superset antecedent): the relax step succeeds;
* ``fd_found_elsewhere`` — mined FDs determine the consequent but none
  extends the designer's antecedent (the paper's failure mode: minimal
  mined antecedents need not contain the designer's);
* ``nothing_found`` — discovery produced no FD for the consequent at
  all (bounded size, sampling, or genuine absence).

The CB method, by contrast, searches *from* the designer's FD, so when
an extension repair exists it finds it; the ablation bench
(`benchmarks/bench_ablation_dc_relax.py`) quantifies both the cost gap
and the recall gap on the same workloads.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.fd.fd import FunctionalDependency
from repro.fd.measures import assess
from repro.relational.relation import Relation

from .bridge import fds_among
from .engine import discover_dcs
from .predicates import build_predicate_space
from .search import DCDiscoveryResult

__all__ = ["RelaxOutcome", "RelaxVerdict", "RelaxReport", "discover_then_relax"]


class RelaxOutcome(enum.Enum):
    """What the relax step managed to do for one designer FD."""

    ALREADY_VALID = "already_valid"
    EXTENSION_FOUND = "extension_found"
    FD_FOUND_ELSEWHERE = "fd_found_elsewhere"
    NOTHING_FOUND = "nothing_found"


@dataclass(frozen=True)
class RelaxVerdict:
    """The relax result for one designer FD."""

    fd: FunctionalDependency
    outcome: RelaxOutcome
    confidence: float
    extensions: tuple[FunctionalDependency, ...] = ()
    alternatives: tuple[FunctionalDependency, ...] = ()

    @property
    def repaired(self) -> bool:
        """Whether the workflow produced a usable replacement."""
        return self.outcome in (
            RelaxOutcome.ALREADY_VALID,
            RelaxOutcome.EXTENSION_FOUND,
        )

    def __str__(self) -> str:
        return f"{self.fd}: {self.outcome.value} (c={self.confidence:.4g})"


@dataclass
class RelaxReport:
    """End-to-end accounting of one discover-then-relax run."""

    verdicts: list[RelaxVerdict] = field(default_factory=list)
    discovery: DCDiscoveryResult | None = None
    mined_fds: list[FunctionalDependency] = field(default_factory=list)
    discovery_seconds: float = 0.0
    relax_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Discovery + relax wall time."""
        return self.discovery_seconds + self.relax_seconds

    @property
    def repaired_count(self) -> int:
        """Designer FDs the workflow could validate or extend."""
        return sum(1 for v in self.verdicts if v.repaired)

    def verdict_for(self, fd: FunctionalDependency) -> RelaxVerdict:
        """The verdict of one designer FD (ValueError if absent)."""
        for verdict in self.verdicts:
            if verdict.fd == fd:
                return verdict
        raise ValueError(f"no verdict for {fd}")


def discover_then_relax(
    relation: Relation,
    designer_fds: list[FunctionalDependency],
    max_size: int = 4,
    max_pairs: int | None = 200_000,
    order_predicates: bool = False,
    max_constraints: int | None = None,
) -> RelaxReport:
    """Run the [16]-style workflow against ``designer_fds``.

    ``max_size`` bounds DC size (an FD over k antecedent attributes
    needs a DC of k+1 predicates, so repairs longer than
    ``max_size - 2`` over a single-antecedent FD are out of reach —
    another structural handicap the report makes visible).
    ``order_predicates=False`` keeps the space to the FD fragment,
    which is the generous setting for the comparison: order predicates
    only blow the space up further.  Discovery runs sample-then-verify
    with ``max_pairs`` as the sample budget — exact results without
    full evidence construction.
    """
    report = RelaxReport()

    start = time.perf_counter()
    space = build_predicate_space(relation, order_predicates=order_predicates)
    discovery = discover_dcs(
        relation,
        space,
        max_size=max_size,
        max_constraints=max_constraints,
        sample_pairs=max_pairs,
    )
    report.discovery = discovery
    report.mined_fds = fds_among(discovery.constraints)
    report.discovery_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for designer_fd in designer_fds:
        for fd in designer_fd.decompose():
            report.verdicts.append(_relax_one(relation, fd, report.mined_fds))
    report.relax_seconds = time.perf_counter() - start
    return report


def _relax_one(
    relation: Relation,
    fd: FunctionalDependency,
    mined: list[FunctionalDependency],
) -> RelaxVerdict:
    assessment = assess(relation, fd)
    if assessment.is_exact:
        return RelaxVerdict(fd, RelaxOutcome.ALREADY_VALID, assessment.confidence)
    antecedent = set(fd.antecedent)
    same_consequent = [m for m in mined if m.consequent == fd.consequent]
    extensions = tuple(
        m for m in same_consequent if antecedent <= set(m.antecedent)
    )
    if extensions:
        return RelaxVerdict(
            fd,
            RelaxOutcome.EXTENSION_FOUND,
            assessment.confidence,
            extensions=extensions,
            alternatives=tuple(m for m in same_consequent if m not in extensions),
        )
    if same_consequent:
        return RelaxVerdict(
            fd,
            RelaxOutcome.FD_FOUND_ELSEWHERE,
            assessment.confidence,
            alternatives=tuple(same_consequent),
        )
    return RelaxVerdict(fd, RelaxOutcome.NOTHING_FOUND, assessment.confidence)
