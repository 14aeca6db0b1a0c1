"""The tiled evidence engine: block-vectorized pair space + sample-then-verify.

:mod:`repro.dc.evidence` builds the evidence multiset by enumerating
every representative pair in one shot — the reference semantics, but
with two scaling cliffs: the numpy sweep only applies to ≤ 62-predicate
spaces over NULL/NaN-free ordered columns, and *every* workload pays
full O(m²) evidence construction even when it only needs to check a
handful of candidate DCs.  This module removes both:

* **Tiling** — the pair space is partitioned into fixed-size blocks
  (``tile × tile`` representative rows, default 4096, the
  ``REPRO_DC_TILE`` / :class:`repro.core.config.EngineConfig` knob) and
  each block is evaluated fully vectorized through the active kernel
  backend's ``evidence_sweep``.  Peak additional memory is bounded by
  the block chunk plus the distinct-evidence map — never O(m²).
* **Multi-word masks** — the block kernels carry evidence bits in
  62-bit words (``EVIDENCE_WORD_BITS``), so predicate spaces of any
  width vectorize; the pure-Python backend's native bignums are its
  word representation.
* **NULL/NaN lanes** — order comparisons involving NULL or NaN are
  classified into the ``gt`` lane exactly as a direct ``<`` evaluates
  them (always false), inside the kernel — no reference-loop fallback.
* **Sample-then-verify discovery** — :func:`discover_dcs` mines
  candidate DCs from a deterministic sample of representative pairs,
  then *verifies* each candidate by scanning only its own predicates
  block-wise with early exit on the first violation.  Failed candidates
  feed their violating pairs' evidence back into the working set and
  mining repeats — the classic Hydra-style refinement loop, which
  converges to exactly the full-enumeration result: at the fixpoint
  every minimal-on-sample DC is valid on the instance, and validity is
  upward closed, so the minimal covers of the working set and of the
  full evidence coincide.  Clean candidates never pay for full
  evidence construction.

``engine="reference"`` (the one-shot enumeration) is retained in
:func:`discover_dcs` and serves as the property-test oracle.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.relational import kernels
from repro.relational.errors import validate_engine
from repro.relational.relation import Relation

from .evidence import (
    EvidenceSet,
    _attribute_tables,
    _collapse_duplicates,
    _decode_pair,
    _eq_all_lane,
    _sampled_pair_ids,
    build_evidence_set,
)
from .model import DCError, DenialConstraint, Operator
from .predicates import PredicateSpace, build_predicate_space
from .search import DCDiscoveryResult, mine_denial_constraints

__all__ = [
    "DEFAULT_SAMPLE_PAIRS",
    "DEFAULT_TILE",
    "TILE_ENV_VAR",
    "build_evidence_tiled",
    "dc_violating_pairs",
    "discover_dcs",
    "effective_tile",
    "set_tile",
    "use_tile",
]

#: Default edge length of a pair-space block, in representative rows.
DEFAULT_TILE = 4096

#: Environment variable overriding the default tile size.
TILE_ENV_VAR = "REPRO_DC_TILE"

#: Default representative-pair budget of the sample-then-verify loop.
DEFAULT_SAMPLE_PAIRS = 50_000

#: How many violating pairs feed back per failed candidate per round.
_REFINE_PAIRS = 8

#: In-process override installed by :func:`set_tile`.
_forced_tile: int | None = None

_OPCODE = {
    Operator.EQ: 0,
    Operator.NE: 1,
    Operator.LT: 2,
    Operator.LE: 3,
    Operator.GT: 4,
    Operator.GE: 5,
}


def _validate_tile(tile: object, source: str) -> int:
    if isinstance(tile, bool) or not isinstance(tile, int) or tile < 1:
        # Same message as EngineConfig's constructor validation, plus
        # the source, so every configuration path reads identically.
        raise ValueError(
            f"dc_tile must be a positive integer, got {tile!r} (from {source})"
        )
    return tile


def set_tile(tile: int | None) -> None:
    """Force a tile size in-process (overrides ``REPRO_DC_TILE``).

    ``None`` removes the override.  :meth:`EngineConfig.activate`
    installs its ``dc_tile`` through this.
    """
    global _forced_tile
    _forced_tile = None if tile is None else _validate_tile(tile, "set_tile()")


def effective_tile() -> int:
    """The tile size the engine would use now (override > env > default)."""
    if _forced_tile is not None:
        return _forced_tile
    env = os.environ.get(TILE_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"dc_tile must be a positive integer, got {env!r} "
                f"(from ${TILE_ENV_VAR})"
            ) from None
        return _validate_tile(value, f"${TILE_ENV_VAR}")
    return DEFAULT_TILE


@contextmanager
def use_tile(tile: int | None) -> Iterator[None]:
    """Scoped :func:`set_tile` (tests and benches use this)."""
    global _forced_tile
    previous = _forced_tile
    set_tile(tile)
    try:
        yield
    finally:
        _forced_tile = previous


# ----------------------------------------------------------------------
# Pair-space preparation
# ----------------------------------------------------------------------
@dataclass
class _PairSpace:
    """Backend-ready state of one relation's representative pair space."""

    space: PredicateSpace
    specs: dict
    rep_rows: list[int]
    mults: list[int]
    within_pairs: int
    eq_all: int
    attr_pos: dict[str, int]

    @property
    def num_reps(self) -> int:
        return len(self.rep_rows)

    @property
    def rep_pairs(self) -> int:
        m = self.num_reps
        return m * (m - 1) // 2


def _pair_space(
    relation: Relation,
    space: PredicateSpace,
    collapse: bool = True,
) -> _PairSpace:
    """Build kernel specs over the (collapsed) pair space."""
    tables = _attribute_tables(relation, space)
    if collapse and space.attributes:
        rep_rows, mults, within_pairs = _collapse_duplicates(
            relation, space.attributes
        )
    else:
        rep_rows = list(range(relation.num_rows))
        mults = [1] * relation.num_rows
        within_pairs = 0
    backend = kernels.get_backend()
    specs = backend.evidence_specs(tables, rep_rows, mults, space.size)
    return _PairSpace(
        space=space,
        specs=specs,
        rep_rows=rep_rows,
        mults=mults,
        within_pairs=within_pairs,
        eq_all=_eq_all_lane(tables),
        attr_pos={name: pos for pos, name in enumerate(space.attributes)},
    )


def _pred_ops(pair_space: _PairSpace, dc_mask: int) -> list[tuple[int, int]]:
    return [
        (pair_space.attr_pos[pred.attribute], _OPCODE[pred.operator])
        for pred in pair_space.space.predicates_of(dc_mask)
    ]


# ----------------------------------------------------------------------
# Tiled evidence construction
# ----------------------------------------------------------------------
def build_evidence_tiled(
    relation: Relation,
    space: PredicateSpace,
    max_pairs: int | None = None,
    tile: int | None = None,
) -> EvidenceSet:
    """The evidence multiset via the tiled block kernels.

    Semantically identical to :func:`repro.dc.evidence.build_evidence_set`
    full enumeration — any predicate-space width, NULL/NaN in ordered
    columns included — at O(tile-chunk) peak memory.  ``max_pairs``
    bounds the number of *representative* pairs examined (a seeded
    permutation sample; duplicate-class-internal pairs are always
    summarized), flagged honestly via ``sampled``.
    """
    tile = effective_tile() if tile is None else _validate_tile(tile, "tile=")
    n = relation.num_rows
    total_unordered = n * (n - 1) // 2
    counts: dict[int, int] = {}
    if not space.attributes or n < 2:
        budget = (
            total_unordered if max_pairs is None else min(max_pairs, total_unordered)
        )
        if budget > 0:
            counts[0] = 2 * budget
        return EvidenceSet(
            space=space,
            counts=counts,
            total_pairs=2 * max(budget, 0),
            sampled=0 <= budget < total_unordered,
        )
    pair_space = _pair_space(relation, space)
    if pair_space.within_pairs:
        counts[pair_space.eq_all] = 2 * pair_space.within_pairs
    backend = kernels.get_backend()
    rep_total = pair_space.rep_pairs
    if max_pairs is None or max_pairs >= rep_total:
        backend.evidence_sweep(pair_space.specs, tile, counts)
        return EvidenceSet(
            space=space,
            counts=counts,
            total_pairs=2 * total_unordered,
            sampled=False,
        )
    m = pair_space.num_reps
    batch_lefts: list[int] = []
    batch_rights: list[int] = []
    for k in _sampled_pair_ids(rep_total, max_pairs):
        left, right = _decode_pair(k, m)
        batch_lefts.append(left)
        batch_rights.append(right)
        if len(batch_lefts) >= 65536:
            backend.evidence_pairs_into(
                pair_space.specs, batch_lefts, batch_rights, counts
            )
            batch_lefts, batch_rights = [], []
    if batch_lefts:
        backend.evidence_pairs_into(
            pair_space.specs, batch_lefts, batch_rights, counts
        )
    return EvidenceSet(
        space=space,
        counts=counts,
        total_pairs=sum(counts.values()),
        sampled=True,
    )


# ----------------------------------------------------------------------
# Verification (the "then verify" half)
# ----------------------------------------------------------------------
def _verify_dc(
    pair_space: _PairSpace,
    dc_mask: int,
    tile: int,
) -> tuple[bool, dict[int, int]]:
    """Whether ``dc_mask`` holds on the full pair space.

    Scans only the DC's own predicates, block-wise, early-exiting at
    the first violating chunk.  On failure returns the evidence of up
    to ``_REFINE_PAIRS`` violating pairs (both directions) so the
    mining loop can refine its working set.
    """
    if pair_space.within_pairs and dc_mask & pair_space.eq_all == dc_mask:
        # Duplicate rows already violate the conjunction: their pairs
        # satisfy every equality-compatible predicate.
        return False, {pair_space.eq_all: 2 * pair_space.within_pairs}
    backend = kernels.get_backend()
    weight, hits = backend.dc_scan(
        pair_space.specs, _pred_ops(pair_space, dc_mask), tile, _REFINE_PAIRS
    )
    if weight == 0:
        return True, {}
    seen: set[tuple[int, int]] = set()
    lefts: list[int] = []
    rights: list[int] = []
    for a, b in hits:
        pair = (a, b) if a < b else (b, a)
        if pair not in seen:
            seen.add(pair)
            lefts.append(pair[0])
            rights.append(pair[1])
    refinements: dict[int, int] = {}
    backend.evidence_pairs_into(pair_space.specs, lefts, rights, refinements)
    return False, refinements


# ----------------------------------------------------------------------
# Sample-then-verify discovery
# ----------------------------------------------------------------------
def discover_dcs(
    relation: Relation,
    space: PredicateSpace | None = None,
    *,
    engine: str = "tiled",
    max_size: int = 4,
    max_violations: int = 0,
    max_constraints: int | None = None,
    sample_pairs: int | None = None,
    tile: int | None = None,
    order_predicates: bool = True,
) -> DCDiscoveryResult:
    """Mine all minimal valid DCs of ``relation`` under ``space``.

    ``engine="tiled"`` (default) runs the sample-then-verify loop: mine
    candidates from at most ``sample_pairs`` representative pairs
    (default :data:`DEFAULT_SAMPLE_PAIRS`, deterministic), verify each
    against the full pair space, refine and repeat until every mined DC
    verifies.  The result is *exact* — identical to full enumeration —
    yet clean instances never build the full evidence multiset.
    ``engine="reference"`` is the legacy one-shot path (``sample_pairs``
    maps onto its ``max_pairs`` row-pair budget); it exists as the
    equivalence oracle and for approximate mining
    (``max_violations > 0``), which needs true pair multiplicities.
    """
    validate_engine(engine, ("tiled", "reference"), DCError)
    if space is None:
        space = build_predicate_space(relation, order_predicates=order_predicates)
    if engine == "reference":
        evidence = build_evidence_set(relation, space, max_pairs=sample_pairs)
        return mine_denial_constraints(
            evidence,
            max_size=max_size,
            max_violations=max_violations,
            max_constraints=max_constraints,
        )
    if max_violations:
        raise DCError(
            "the tiled engine verifies exact DCs only; use engine='reference' "
            "for approximate mining (max_violations > 0)"
        )
    start = time.perf_counter()
    tile = effective_tile() if tile is None else _validate_tile(tile, "tile=")
    n = relation.num_rows
    total_unordered = n * (n - 1) // 2
    if not space.attributes or n < 2:
        evidence = build_evidence_tiled(relation, space, tile=tile)
        result = mine_denial_constraints(
            evidence, max_size=max_size, max_constraints=max_constraints
        )
        result.sampled = False
        return result

    pair_space = _pair_space(relation, space)
    rep_total = pair_space.rep_pairs
    budget = DEFAULT_SAMPLE_PAIRS if sample_pairs is None else max(sample_pairs, 0)
    # The refinement loop's completeness argument needs a nonempty
    # working set: mining over zero evidences prunes every branch as
    # vacuous (nothing to hit), so the loop would fixpoint on the empty
    # result while valid DCs exist.  One pair is enough to start.
    budget = max(budget, 1)
    covered = budget >= rep_total

    counts: dict[int, int] = {}
    if pair_space.within_pairs:
        counts[pair_space.eq_all] = 2 * pair_space.within_pairs
    backend = kernels.get_backend()
    if covered:
        backend.evidence_sweep(pair_space.specs, tile, counts)
    else:
        m = pair_space.num_reps
        lefts = []
        rights = []
        for k in _sampled_pair_ids(rep_total, budget):
            left, right = _decode_pair(k, m)
            lefts.append(left)
            rights.append(right)
        backend.evidence_pairs_into(pair_space.specs, lefts, rights, counts)

    verified: set[int] = set()
    branches = 0
    while True:
        evidence = EvidenceSet(
            space=space,
            counts=dict(counts),
            total_pairs=sum(counts.values()),
            sampled=not covered,
        )
        mined = mine_denial_constraints(
            evidence, max_size=max_size, max_constraints=max_constraints
        )
        branches += mined.branches_explored
        if covered:
            result = mined
            break
        dirty = False
        for dc in mined.constraints:
            dc_mask = space.mask_of(dc.predicates)
            if dc_mask in verified:
                continue
            valid, refinements = _verify_dc(pair_space, dc_mask, tile)
            if valid:
                verified.add(dc_mask)
                continue
            dirty = True
            for mask, weight in refinements.items():
                counts[mask] = counts.get(mask, 0) + weight
        if not dirty:
            result = mined
            break
    result.evidence_pairs = 2 * total_unordered
    result.distinct_evidences = len(counts)
    result.branches_explored = branches
    result.sampled = False  # verification makes the output exact
    result.elapsed_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# Direct DC violation scans (conflict graphs, validation)
# ----------------------------------------------------------------------
def dc_violating_pairs(
    relation: Relation,
    dc: DenialConstraint,
    limit: int | None = None,
    tile: int | None = None,
) -> list[tuple[int, int]]:
    """Ordered row pairs violating ``dc``, via the block kernels.

    Every ordered pair ``(i, j)``, ``i ≠ j``, satisfying all conjuncts
    under the *engine's* pair semantics — the same three-way lanes the
    evidence multiset and the discovery verifier use, so DCs this
    subsystem mines as valid have zero violating pairs here.  On
    NULL/NaN-free data that coincides with
    :meth:`DenialConstraint.violations`; on special values it follows
    code space instead of the row-dict interpreter: NULL equals NULL
    (as the FD layer's code comparisons do, where the interpreter would
    raise on ordered NULLs), a NaN equals the same NaN object, and an
    order-incomparable pair lands in the ``gt`` lane exactly as the
    reference evidence loop's ``<`` classifies it.  Cost is
    O(pairs · |DC attrs| / SIMD); pair order follows the block sweep,
    not the row-major reference enumeration.  ``limit`` truncates.
    """
    tile = effective_tile() if tile is None else _validate_tile(tile, "tile=")
    space = PredicateSpace(relation.name, tuple(dc.predicates))
    pair_space = _pair_space(relation, space, collapse=False)
    backend = kernels.get_backend()
    dc_mask = space.mask_of(dc.predicates)
    _weight, hits = backend.dc_scan(
        pair_space.specs, _pred_ops(pair_space, dc_mask), tile, limit
    )
    return hits
