"""Candidate generation and ranking: the paper's ``ExtendByOne`` (Alg. 2).

Given ``F : X → Y`` on instance ``r``, every attribute ``A ∈ R \\ XY``
yields a candidate ``F^A : XA → Y`` with::

    confidence  c = |π_XA(r)| / |π_XAY(r)|
    goodness    g = |π_XA(r)| − |π_Y(r)|

Candidates are ranked by confidence descending, then |goodness|
ascending (Section 4.2 and Table 1: ``Municipal (c=1, g=0)`` beats
``PhNo (c=1, g=3)``), then attribute names for determinism.

Per footnote 1 and the Veterans case study, attributes containing NULLs
are never candidates.

**Pseudocode note**: Algorithm 2 as printed only *adds* candidates with
confidence 1 to its output, yet Algorithm 3 needs non-exact candidates
back to keep extending, and Section 4.2's tables list every candidate.
We follow the text: return all candidates, ranked; callers filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.fd.fd import FunctionalDependency
from repro.fd.measures import check_fd_attributes
from repro.relational.relation import Relation

from .config import CandidateOrder, RepairConfig

__all__ = ["Candidate", "extend_by_one", "candidate_rank_key", "order_key"]


@total_ordering
@dataclass(frozen=True)
class Candidate:
    """A candidate repair ``F^U : XU → Y`` with its measures.

    ``added`` records the attributes appended to the original
    antecedent, in the order the search chose them.
    """

    fd: FunctionalDependency
    base: FunctionalDependency
    added: tuple[str, ...]
    confidence: float
    goodness: int

    @property
    def is_exact(self) -> bool:
        """Whether this candidate already repairs the FD (c = 1)."""
        return self.confidence >= 1.0

    @property
    def num_added(self) -> int:
        """``|U|``: number of attributes added over the base FD."""
        return len(self.added)

    @property
    def rank_key(self) -> tuple:
        """Sort key implementing the Section 4.2 ranking (lower = better)."""
        return (-self.confidence, abs(self.goodness), self.added)

    def queue_key(self) -> tuple:
        """Sort key for Algorithm 3's queue: antecedent cardinality first,
        then rank (lower = popped earlier)."""
        return (self.num_added, -self.confidence, abs(self.goodness), self.added)

    def __lt__(self, other: "Candidate") -> bool:
        return self.rank_key < other.rank_key

    def __str__(self) -> str:
        return (
            f"{self.fd} (+{', '.join(self.added)}; "
            f"c={self.confidence:.4g}, g={self.goodness})"
        )


def candidate_rank_key(candidate: Candidate) -> tuple:
    """Module-level accessor for :attr:`Candidate.rank_key` (for ``sorted``)."""
    return candidate.rank_key


def order_key(candidate: Candidate, order: CandidateOrder) -> tuple:
    """Intra-level sort key under a ranking policy (lower = better).

    ``RANK`` is the paper's §4.2 ordering; the others are ablation
    variants (see :class:`~repro.core.config.CandidateOrder`).
    """
    if order is CandidateOrder.RANK:
        return candidate.rank_key
    if order is CandidateOrder.CONFIDENCE_ONLY:
        return (-candidate.confidence, candidate.added)
    return (candidate.added,)  # NAME: alphabetical, unguided


def extend_by_one(
    relation: Relation,
    fd: FunctionalDependency,
    config: RepairConfig | None = None,
    base: FunctionalDependency | None = None,
    only_exact: bool = False,
) -> list[Candidate]:
    """All one-attribute extensions of ``fd``, ranked (Algorithm 2).

    ``base`` is the original FD being repaired when ``fd`` is itself an
    intermediate extension (Algorithm 3); it defaults to ``fd``.  With
    ``only_exact=True`` the function reproduces the printed pseudocode
    and returns only confidence-1 candidates.
    """
    config = config or RepairConfig()
    base = base or fd
    check_fd_attributes(relation, fd)
    y = list(fd.consequent)
    distinct_y = relation.count_distinct(y)
    stats = relation.stats
    exclude = set(fd.attributes)
    names: list[str] = []
    for attr in relation.attribute_names:
        if attr in exclude or relation.column(attr).has_nulls:
            continue
        if config.exclude_unique and stats.is_unique(attr):
            continue
        names.append(attr)
    # Prime π_X: every |π_XA| and |π_XAY| below comes off it in one
    # batched count (the XA-from-X derivation of Section 4.4), and when
    # the search expands XA, π_XA is one refinement of it.  No π_XA is
    # built here.
    if fd.antecedent:
        relation.stripped_partition(list(fd.antecedent))
    counts = stats.extension_counts(list(fd.antecedent), names, y)
    candidates: list[Candidate] = []
    for attr, (distinct_xa, distinct_xay) in zip(names, counts):
        extended = fd.extended(attr)
        confidence = distinct_xa / distinct_xay if distinct_xay else 1.0
        goodness = distinct_xa - distinct_y
        if only_exact and confidence < 1.0:
            continue
        candidates.append(
            Candidate(
                fd=extended,
                base=base,
                added=extended.added_over(base),
                confidence=confidence,
                goodness=goodness,
            )
        )
    candidates.sort(key=lambda c: order_key(c, config.candidate_order))
    return candidates
