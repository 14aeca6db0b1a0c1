"""Minimal-cover search: mine all minimal valid DCs from evidence sets.

A DC ``¬(p₁ ∧ … ∧ p_k)`` is valid iff no evidence mask contains all of
``{p₁…p_k}`` — equivalently, the predicate set must *hit* the
complement of every evidence: for each evidence ``e`` at least one
chosen predicate must lie outside ``e``.  Mining all minimal valid DCs
is therefore the classic minimal-hitting-set enumeration over the
complements of the evidences (FastDC's "minimal set covers"), which we
implement as a depth-first search with three prunings:

* **branch ordering** — predicates are tried in descending coverage
  (how many still-unhit evidences they hit), the standard greedy order;
* **minimality** — a candidate whose proper subset already covers
  everything is discarded against the running result set;
* **triviality** — predicate pairs on the same attribute whose
  conjunction is unsatisfiable (``=`` with ``≠``, ``<`` with ``≥``…)
  never co-occur in a branch.

``max_violations`` switches to *approximate* DCs: up to that many
(ordered) pairs may violate the constraint, the analogue of the
paper's AFD notion at the DC level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .evidence import EvidenceSet
from .model import DCError, DenialConstraint

__all__ = ["DCDiscoveryResult", "mine_denial_constraints"]


@dataclass
class DCDiscoveryResult:
    """All minimal DCs found, plus search accounting."""

    constraints: list[DenialConstraint] = field(default_factory=list)
    evidence_pairs: int = 0
    distinct_evidences: int = 0
    branches_explored: int = 0
    sampled: bool = False
    elapsed_seconds: float = 0.0

    @property
    def num_constraints(self) -> int:
        """Number of minimal DCs mined."""
        return len(self.constraints)

    def with_attributes(self, attributes: set[str]) -> list[DenialConstraint]:
        """Mined DCs whose attribute set is contained in ``attributes``."""
        return [
            dc for dc in self.constraints if dc.attributes <= frozenset(attributes)
        ]


def mine_denial_constraints(
    evidence: EvidenceSet,
    max_size: int = 4,
    max_violations: int = 0,
    max_constraints: int | None = None,
) -> DCDiscoveryResult:
    """Enumerate minimal valid DCs of at most ``max_size`` predicates.

    ``max_violations > 0`` mines approximate DCs.  ``max_constraints``
    caps the output (the search stops once reached) — discovery output
    is exponential in the worst case, which is exactly the paper's
    §2 impracticality argument.
    """
    if max_size < 1:
        raise DCError("max_size must be >= 1")
    if max_violations < 0:
        raise DCError("max_violations must be >= 0")
    if max_constraints is not None and max_constraints < 0:
        raise DCError("max_constraints must be >= 0 or None")
    start = time.perf_counter()
    space = evidence.space
    num_preds = space.size
    result = DCDiscoveryResult(
        evidence_pairs=evidence.total_pairs,
        distinct_evidences=evidence.num_distinct,
        sampled=evidence.sampled,
    )

    # An evidence is "hit" by predicate p when p ∉ e. With tolerance,
    # evidences whose total multiplicity can be absorbed by the budget
    # participate in a weighted variant handled below.  All weight
    # queries run on the postings index: a candidate's violating weight
    # is the intersection of its predicates' postings (O(k · smallest
    # posting)), not a scan over every distinct evidence.
    index = evidence.index
    full_mask = (1 << num_preds) - 1

    # Per-predicate conflict masks: bits of predicates that cannot
    # co-occur with it in a satisfiable conjunction.
    conflict = [0] * num_preds
    for i, pred in enumerate(space.predicates):
        for j, other in enumerate(space.predicates):
            if i == j or pred.attribute != other.attribute:
                continue
            if pred.operator.negation is other.operator:
                conflict[i] |= 1 << j

    found_masks: list[int] = []

    def already_covered(mask: int) -> bool:
        return any(prev & mask == prev for prev in found_masks)

    def violating_weight(dc_mask: int) -> int:
        return index.violations_of(dc_mask)

    def search(chosen_mask: int, chosen_count: int, start_pred: int) -> None:
        if max_constraints is not None and len(found_masks) >= max_constraints:
            return
        result.branches_explored += 1
        chosen_weight = violating_weight(chosen_mask) if chosen_count else None
        if chosen_count and chosen_weight <= max_violations:
            if not already_covered(chosen_mask):
                # Check proper subsets: drop any predicate and the DC
                # must become invalid, else the candidate is non-minimal.
                minimal = True
                probe = chosen_mask
                while probe:
                    bit = probe & -probe
                    if violating_weight(chosen_mask ^ bit) <= max_violations:
                        minimal = False
                        break
                    probe ^= bit
                if minimal:
                    found_masks.append(chosen_mask)
                    result.constraints.append(
                        DenialConstraint(space.predicates_of(chosen_mask))
                    )
            return
        if chosen_count >= max_size:
            return
        # Predicates still eligible: after start_pred, not conflicting,
        # not already chosen.
        banned = chosen_mask
        probe = chosen_mask
        while probe:
            bit = probe & -probe
            banned |= conflict[bit.bit_length() - 1]
            probe ^= bit
        candidates = [
            p
            for p in range(start_pred, num_preds)
            if not (banned >> p) & 1
        ]
        # Branch order: predicates hitting the most currently-violating
        # weight first (steepest descent toward validity).  p's hit
        # weight is exactly the violating weight its addition removes.
        still_weight = (
            chosen_weight if chosen_weight is not None else violating_weight(0)
        )

        def coverage(p: int) -> int:
            return still_weight - violating_weight(chosen_mask | (1 << p))

        # NOTE: a predicate is *useful* only if adding it removes some
        # violating weight; useless predicates can never make a minimal DC.
        scored = [(coverage(p), p) for p in candidates]
        scored.sort(key=lambda item: (-item[0], item[1]))
        for cov, p in scored:
            if cov == 0 and max_violations == 0:
                continue
            new_mask = chosen_mask | (1 << p)
            if already_covered(new_mask):
                continue
            search(new_mask, chosen_count + 1, p + 1)
            if max_constraints is not None and len(found_masks) >= max_constraints:
                return

    if full_mask:
        search(0, 0, 0)
    result.elapsed_seconds = time.perf_counter() - start
    return result
