"""Plain distinct-count FD discovery: the oracle for stripped-partition TANE.

The levelwise walk of :func:`repro.discovery.tane.discover_fds` without
its partition machinery — each candidate ``X → A`` compares
``|π_X|`` with ``|π_XA|`` counted straight from the code columns.  The
discovery suite asserts both return the identical minimal FDs and
confidences.
"""

from __future__ import annotations

import itertools
import time

from repro.discovery.tane import DiscoveredFD, DiscoveryResult, _discovery_pool
from repro.fd.fd import FunctionalDependency
from repro.relational.relation import Relation

__all__ = ["discover_fds_plain"]


def discover_fds_plain(
    relation: Relation,
    max_lhs_size: int = 3,
    min_confidence: float = 1.0,
    attributes: list[str] | None = None,
) -> DiscoveryResult:
    """The pre-partition discovery: distinct-count comparisons only.

    Semantically identical to :func:`discover_fds`, but every candidate
    test pays a full scan building the set of code tuples; counts are
    memoized locally, never on the relation.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError("min_confidence must be in (0, 1]")
    start = time.perf_counter()
    pool = _discovery_pool(relation, attributes)
    result = DiscoveryResult()

    columns = {name: relation.column(name).codes for name in pool}
    memo: dict[frozenset[str], int] = {}

    def distinct(attrs: tuple[str, ...]) -> int:
        key = frozenset(attrs)
        cached = memo.get(key)
        if cached is None:
            cached = len(set(zip(*(columns[name] for name in attrs))))
            memo[key] = cached
        return cached

    n = relation.num_rows
    minimal_lhs: dict[str, list[frozenset[str]]] = {a: [] for a in pool}
    keys: list[frozenset[str]] = []

    for level in range(1, max_lhs_size + 1):
        result.levels_explored = level
        for lhs in itertools.combinations(pool, level):
            lhs_set = frozenset(lhs)
            if any(key <= lhs_set for key in keys):
                continue
            lhs_count = distinct(lhs)
            if lhs_count == n:
                keys.append(lhs_set)
            for rhs in pool:
                if rhs in lhs_set:
                    continue
                if any(known <= lhs_set for known in minimal_lhs[rhs]):
                    continue
                result.candidates_tested += 1
                xy_count = distinct(tuple(sorted(lhs_set | {rhs})))
                confidence = lhs_count / xy_count if xy_count else 1.0
                if confidence >= min_confidence:
                    fd = FunctionalDependency(lhs, (rhs,))
                    result.fds.append(DiscoveredFD(fd, confidence))
                    minimal_lhs[rhs].append(lhs_set)
    result.elapsed_seconds = time.perf_counter() - start
    return result
