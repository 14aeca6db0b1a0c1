"""Levelwise (TANE-style) discovery of exact and approximate FDs.

Section 2 of the paper discusses the alternative to FD evolution: run a
dependency-discovery algorithm over the instance ([16], denial
constraints) and then relax the designer's constraints against the
discovered set — and argues it is "rather impractical" because (i) it
is expensive and (ii) the discovered constraints "not always include
extensions of the ones specified by the designer".  This module makes
that comparison executable: a levelwise lattice search in the TANE
family, running on the engine's stripped partitions.

The search applies the genuine TANE machinery:

* **error-based tests** — ``e(X)`` comes from the stripped partition of
  X (``|π_X| = n − e(X)``), and π_X itself is one O(covered)
  refinement of the previous level's π_{X∖{A}}, held in a two-level
  lattice store (plus the relation's own partition cache for the
  single-attribute base);
* **candidate-set (C⁺) pruning** — each node carries the set of
  right-hand sides not already implied by a found subset FD,
  intersected from its parents; nodes whose candidate set empties are
  deleted, and their supersets are never expanded;
* **key-based pruning** — supersets of a discovered key are skipped
  outright (a key determines everything, so nothing minimal is above
  it).

Discovered output is exactly the seed semantics: *minimal* FDs
``X → A`` (no found FD's antecedent is a proper subset for the same
consequent) with their confidences ``|π_X| / |π_XA|``; the
``min_confidence < 1`` mode yields Definition 4's approximate FDs.
Complexity remains exponential in the arity — which is precisely the
paper's point — so ``max_lhs_size`` bounds the walk.  The test
suite pins the output against a plain distinct-count oracle
(``tests/oracles/tane.py``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.fd.fd import FunctionalDependency
from repro.relational.relation import Relation

__all__ = ["DiscoveredFD", "DiscoveryResult", "discover_fds"]


@dataclass(frozen=True)
class DiscoveredFD:
    """One discovered dependency with its instance confidence."""

    fd: FunctionalDependency
    confidence: float

    @property
    def is_exact(self) -> bool:
        """Whether the FD holds exactly on the mined instance."""
        return self.confidence >= 1.0

    def __str__(self) -> str:
        return f"{self.fd} (c={self.confidence:.4g})"


@dataclass
class DiscoveryResult:
    """All minimal FDs found, plus search accounting."""

    fds: list[DiscoveredFD] = field(default_factory=list)
    candidates_tested: int = 0
    levels_explored: int = 0
    elapsed_seconds: float = 0.0

    def exact(self) -> list[DiscoveredFD]:
        """Only the exact discovered FDs."""
        return [item for item in self.fds if item.is_exact]

    def with_consequent(self, attribute: str) -> list[DiscoveredFD]:
        """Discovered FDs whose consequent is ``attribute``."""
        return [item for item in self.fds if item.fd.consequent == (attribute,)]

    def extensions_of(self, fd: FunctionalDependency) -> list[DiscoveredFD]:
        """Discovered FDs that extend ``fd``'s antecedent (same consequent).

        This is the lookup the "discover then relax" strategy needs;
        the paper's observation is that it can come back empty even
        when a repair exists, because discovery only reports *minimal*
        FDs and a minimal antecedent need not contain the designer's.
        """
        x = set(fd.antecedent)
        return [
            item
            for item in self.fds
            if item.fd.consequent == fd.consequent and x <= set(item.fd.antecedent)
        ]


def _discovery_pool(relation: Relation, attributes: list[str] | None) -> list[str]:
    """The attribute pool: as given, or every NULL-free attribute."""
    if attributes is not None:
        return list(attributes)
    return [
        name
        for name in relation.attribute_names
        if not relation.column(name).has_nulls
    ]


class _LatticeNode:
    """One live lattice node: π_X (possibly virtual), C⁺ and found sets.

    Materializing a partition costs ~3× a counting scan, and many nodes
    are scanned only a handful of times — so a node starts *virtual*:
    it holds the nearest materialized ancestor's partition (``base``)
    plus the columns added since.  Every error it needs is then one
    multi-column
    :meth:`~repro.relational.partition.StrippedPartition.refined_error`
    off the base — the same work the plain engine does, so a virtual
    node never loses.  :meth:`materialize` collapses the chain when the
    shrink in covered rows repays the grouping pass (decided per node
    in the level's source-selection step).
    """

    __slots__ = ("partition", "base", "columns", "cands", "found")

    def __init__(self, partition, base, columns) -> None:
        self.partition = partition  # StrippedPartition | None when virtual
        self.base = base  # nearest materialized ancestor's partition
        self.columns = columns  # code columns added over the base
        self.cands: frozenset[str] = frozenset()
        self.found: frozenset[str] = frozenset()

    def child(self, codes) -> "_LatticeNode":
        """A virtual node for ``X ∪ {A}``, hanging off the same base."""
        if self.partition is not None:
            return _LatticeNode(None, self.partition, (codes,))
        return _LatticeNode(None, self.base, self.columns + (codes,))

    def materialize(self) -> None:
        """Collapse the virtual chain into a real partition."""
        if self.partition is None:
            self.partition = self.base.refine(*self.columns)

    @property
    def scan_covered(self) -> int:
        """Rows a counting scan through this node touches."""
        if self.partition is not None:
            return self.partition.covered_rows
        return self.base.covered_rows

    def error(self) -> int:
        """``e(X)`` without forcing materialization."""
        if self.partition is not None:
            return self.partition.error()
        return self.base.refined_error(*self.columns)

    def refined_error(self, codes) -> int:
        """``e(X·A)`` for one extra column, without materializing π_X."""
        if self.partition is not None:
            return self.partition.refined_error(codes)
        return self.base.refined_error(*self.columns, codes)


def discover_fds(
    relation: Relation,
    max_lhs_size: int = 3,
    min_confidence: float = 1.0,
    attributes: list[str] | None = None,
) -> DiscoveryResult:
    """Discover minimal FDs ``X → A`` with ``|X| ≤ max_lhs_size``.

    ``min_confidence < 1`` switches to approximate-FD discovery
    (confidence-thresholded, Definition 4's AFD notion).  NULL-bearing
    attributes are skipped entirely, consistent with the FD layer.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError("min_confidence must be in (0, 1]")
    start = time.perf_counter()
    pool = _discovery_pool(relation, attributes)
    result = DiscoveryResult()

    n = relation.num_rows
    # Kernel-ready code columns: plain lists on the python backend,
    # int64 arrays on numpy — whatever the cached partitions refine by.
    columns = {name: relation.column(name).kernel_codes() for name in pool}
    keys: list[frozenset[str]] = []

    # Two-level lattice store of live :class:`_LatticeNode`s.  A node
    # absent from the store was pruned (key superset or empty C⁺), and
    # so are all its supersets.
    root = _LatticeNode(None, None, ())
    root.cands = frozenset(pool)
    prev: dict[frozenset[str], _LatticeNode] = {frozenset(): root}

    for level in range(1, max_lhs_size + 1):
        result.levels_explored = level
        last_level = level == max_lhs_size
        current: dict[frozenset[str], _LatticeNode] = {}

        # Pass A — build the level's live nodes: key pruning, C⁺
        # pruning.  Non-final nodes materialize eagerly (they seed the
        # next level); final-level nodes stay virtual and only collapse
        # if the source-selection step decides the scans repay it.
        nodes: list[tuple] = []  # (lhs, lhs_set, node, lhs_count)
        for lhs in itertools.combinations(pool, level):
            lhs_set = frozenset(lhs)
            # Prune: supersets of a key determine everything trivially.
            if any(key <= lhs_set for key in keys):
                continue
            # C⁺(X) = ⋂_B (C⁺(X∖{B}) ∖ found(X∖{B})) ∖ X: rhs not
            # already implied by a found subset FD.  A missing parent
            # means the parent's C⁺ emptied, hence so does ours.
            candidate_rhs: frozenset[str] | None = None
            pruned = False
            for attr in lhs:
                parent = prev.get(lhs_set - {attr})
                if parent is None:
                    pruned = True
                    break
                surviving = parent.cands - parent.found
                candidate_rhs = (
                    surviving
                    if candidate_rhs is None
                    else candidate_rhs & surviving
                )
            if pruned:
                continue
            candidate_rhs = candidate_rhs - lhs_set
            if not candidate_rhs:
                continue  # C⁺ empty: delete the node, skip all supersets
            # Level 1 takes the relation's cached single-attribute
            # partitions; deeper nodes hang virtually off their first
            # parent's chain.
            first_parent = prev[lhs_set - {lhs[0]}]
            if first_parent is root:
                node = _LatticeNode(
                    relation.stripped_partition([lhs[0]]), None, ()
                )
            else:
                node = first_parent.child(columns[lhs[0]])
                if not last_level:
                    node.materialize()
            node.cands = candidate_rhs
            lhs_count = n - node.error()
            if lhs_count == n:
                keys.append(lhs_set)
            nodes.append((lhs, lhs_set, node, lhs_count))

        # Pass B — shared candidate errors.  Each target set X∪{A} is
        # tested by up to |X|+1 (lhs, rhs) pairs of this level but its
        # error is scanned once, through the contributing node whose
        # scan touches the fewest rows.  Key lhs are skipped outright:
        # |π_XA| = n follows without touching a row.
        sources: dict[frozenset[str], tuple] = {}
        for lhs, lhs_set, node, lhs_count in nodes:
            if lhs_count == n:
                continue
            for rhs in node.cands:
                target = lhs_set | {rhs}
                best = sources.get(target)
                if best is None or node.scan_covered < best[0].scan_covered:
                    sources[target] = (node, rhs)
        # Materialize a virtual node only where it pays: with s scans
        # routed through it, collapsing costs ~3 scans of the base but
        # shrinks each scan from the base's covered rows to π_X's —
        # bounded above by 2·e(X), since every stripped class of ≥ 2
        # rows contributes at least half its size to the error.
        scans_through: dict[int, int] = {}
        node_error = {}
        for lhs, lhs_set, node, lhs_count in nodes:
            node_error[id(node)] = n - lhs_count
        for node, _rhs in sources.values():
            scans_through[id(node)] = scans_through.get(id(node), 0) + 1
        for lhs, lhs_set, node, lhs_count in nodes:
            if node.partition is not None:
                continue
            scans = scans_through.get(id(node), 0)
            base_covered = node.scan_covered
            shrunk = min(2 * node_error[id(node)], base_covered)
            if scans * (base_covered - shrunk) > 3 * base_covered:
                node.materialize()
        target_count = {
            target: n - node.refined_error(columns[rhs])
            for target, (node, rhs) in sources.items()
        }

        # Pass C — emit FDs in the deterministic (combination, pool)
        # order and roll the survivors into the next level's store.
        for lhs, lhs_set, node, lhs_count in nodes:
            found: set[str] = set()
            for rhs in pool:
                if rhs in lhs_set or rhs not in node.cands:
                    continue
                result.candidates_tested += 1
                if lhs_count == n:
                    confidence = 1.0  # a key determines every attribute
                else:
                    xa_count = target_count[lhs_set | {rhs}]
                    confidence = lhs_count / xa_count if xa_count else 1.0
                if confidence >= min_confidence:
                    fd = FunctionalDependency(lhs, (rhs,))
                    result.fds.append(DiscoveredFD(fd, confidence))
                    found.add(rhs)
            if lhs_count < n:  # key nodes are leaves: supersets are pruned
                node.found = frozenset(found)
                current[lhs_set] = node
        prev = current
    result.elapsed_seconds = time.perf_counter() - start
    return result

