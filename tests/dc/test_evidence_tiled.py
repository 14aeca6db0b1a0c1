"""Property tests: the tiled evidence engine against the reference.

Three contracts are pinned, each on both kernel backends:

* **evidence equivalence** — `build_evidence_tiled` produces the exact
  multiset (`{mask: multiplicity}`) of the reference full enumeration,
  including NULL/NaN in ordered columns, >62-predicate spaces (multi-
  word masks) and tile-boundary representative counts;
* **discovery equivalence** — `discover_dcs`'s sample-then-verify loop
  returns exactly the DC set mined from the one-shot reference
  evidence (`mine_denial_constraints(build_evidence_set(...))`), with
  or without a sample budget;
* **index correctness** — `EvidenceIndex` postings intersections match
  the retired full scan, and `EvidenceSet.violations_of` memoizes.

Plus the satellite fixes: the seeded-permutation pair sampler and the
`REPRO_DC_TILE` / `EngineConfig.dc_tile` knob.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig, use_engine
from repro.datarepair.conflicts import build_dc_conflict_graph
from repro.dc import engine as dc_engine
from repro.dc.engine import build_evidence_tiled, dc_violating_pairs, discover_dcs
from repro.dc.evidence import (
    EvidenceIndex,
    _decode_pair,
    _sampled_pair_ids,
    build_evidence_set,
)
from repro.dc.model import DenialConstraint, Operator, Predicate
from repro.dc.predicates import PredicateSpace, build_predicate_space
from repro.dc.search import mine_denial_constraints
from repro.relational import kernels
from repro.relational.relation import Relation

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="NumPy not installed"
        ),
    ),
]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def dc_relations(draw, max_rows=16, allow_special=True):
    """Small relations with numeric columns (so order predicates
    appear), optionally salted with NULL and NaN values."""
    num_rows = draw(st.integers(0, max_rows))
    num_attrs = draw(st.integers(1, 3))
    columns = {}
    for index in range(num_attrs):
        special = (
            st.one_of(st.none(), st.just(float("nan")))
            if allow_special
            else st.nothing()
        )
        value = st.one_of(st.integers(0, 3).map(float), special)
        columns[f"A{index}"] = [draw(value) for _ in range(num_rows)]
    return Relation.from_columns("rand", columns)


def _full_space(relation: Relation) -> PredicateSpace:
    """All six operators on every attribute, NULL/NaN-bearing included
    — wider than the builder emits, to exercise the NULL/NaN lanes."""
    predicates = []
    for name in relation.attribute_names:
        for op in Operator:
            predicates.append(Predicate(name, op))
    return PredicateSpace(relation.name, tuple(predicates))


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_engine(backend=request.param):
        yield request.param


# ----------------------------------------------------------------------
# Evidence equivalence
# ----------------------------------------------------------------------
class TestTiledEvidenceEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(dc_relations(), st.integers(1, 9))
    def test_tiled_matches_reference_with_null_nan_lanes(self, relation, tile):
        space = _full_space(relation)
        with use_engine(backend="python"):
            reference = build_evidence_set(relation, space)
        for backend_name in kernels.available_backends():
            with use_engine(backend=backend_name):
                tiled = build_evidence_tiled(relation, space, tile=tile)
            assert tiled.counts == reference.counts
            assert tiled.total_pairs == reference.total_pairs
            assert not tiled.sampled

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(dc_relations(allow_special=False))
    def test_tiled_matches_reference_on_builder_space(self, backend, relation):
        space = build_predicate_space(relation)
        reference = build_evidence_set(relation, space)
        tiled = build_evidence_tiled(relation, space, tile=4)
        assert tiled.counts == reference.counts

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_tile_boundary_rep_counts(self, backend, delta):
        tile = 6
        m = tile + delta
        relation = Relation.from_columns(
            "edge", {"N": [float(i % 5) for i in range(m)], "K": list(range(m))}
        )
        space = build_predicate_space(relation)
        reference = build_evidence_set(relation, space)
        tiled = build_evidence_tiled(relation, space, tile=tile)
        assert tiled.counts == reference.counts

    def test_wide_space_uses_multi_word_masks(self, backend):
        random.seed(5)
        columns = {
            f"A{a}": [random.randrange(3) for _ in range(15)] for a in range(11)
        }
        relation = Relation.from_columns("wide", columns)
        space = build_predicate_space(relation)
        assert space.size > 62  # beyond a single int64 lane
        reference = build_evidence_set(relation, space)
        tiled = build_evidence_tiled(relation, space, tile=4)
        assert tiled.counts == reference.counts

    def test_duplicate_rows_collapse_identically(self, backend):
        relation = Relation.from_columns(
            "dup", {"N": [1.0, 1.0, 1.0, 2.0, 2.0], "S": ["a"] * 5}
        )
        space = build_predicate_space(relation)
        reference = build_evidence_set(relation, space)
        tiled = build_evidence_tiled(relation, space, tile=2)
        assert tiled.counts == reference.counts

    def test_sampled_tiled_evidence_is_flagged_and_deterministic(self, backend):
        relation = Relation.from_columns(
            "s", {"N": [float(i % 7) for i in range(30)], "K": list(range(30))}
        )
        space = build_predicate_space(relation)
        once = build_evidence_tiled(relation, space, max_pairs=20, tile=8)
        again = build_evidence_tiled(relation, space, max_pairs=20, tile=8)
        assert once.sampled
        assert once.counts == again.counts

    def test_empty_space_and_tiny_relations(self, backend):
        relation = Relation.from_columns("e", {"A": ["x", "y", "x"]})
        space = PredicateSpace("e", ())
        tiled = build_evidence_tiled(relation, space)
        assert tiled.counts == {0: 6}
        single = Relation.from_columns("one", {"A": ["x"]})
        assert build_evidence_tiled(single, build_predicate_space(single)).counts == {}


# ----------------------------------------------------------------------
# Sample-then-verify discovery
# ----------------------------------------------------------------------
def _one_shot(relation, space, **bounds):
    """The reference: mine the one-shot full evidence enumeration."""
    return mine_denial_constraints(build_evidence_set(relation, space), **bounds)


class TestSampleThenVerify:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dc_relations(max_rows=12, allow_special=False),
        st.sampled_from([None, 0, 3]),
    )
    def test_tiled_discovery_equals_reference(self, backend, relation, sample):
        space = build_predicate_space(relation)
        reference = _one_shot(relation, space, max_size=3)
        tiled = discover_dcs(
            relation, space, max_size=3, sample_pairs=sample, tile=5
        )
        assert set(tiled.constraints) == set(reference.constraints)
        assert not tiled.sampled  # verification makes the output exact

    def test_places_discovery_matches(self, places, backend):
        space = build_predicate_space(places, order_predicates=False)
        reference = _one_shot(places, space, max_size=3)
        tiled = discover_dcs(places, space, max_size=3, sample_pairs=10)
        assert set(tiled.constraints) == set(reference.constraints)

    def test_clean_instance_verifies_without_refinement(self, backend):
        relation = Relation.from_columns(
            "clean", {"K": [f"k{i}" for i in range(40)], "V": ["v"] * 40}
        )
        space = build_predicate_space(relation, order_predicates=False)
        result = discover_dcs(relation, space, max_size=2, sample_pairs=5)
        reference = _one_shot(relation, space, max_size=2)
        assert set(result.constraints) == set(reference.constraints)

    def test_tolerance_mines_one_shot_evidence(self, places):
        # Approximate mining needs true pair multiplicities: it mines the
        # full evidence in one shot, exactly as the reference does.
        space = build_predicate_space(places, order_predicates=False)
        for tolerance in (1, 4):
            tiled = discover_dcs(places, space, max_size=3, max_violations=tolerance)
            reference = _one_shot(places, space, max_size=3, max_violations=tolerance)
            assert tiled.constraints == reference.constraints
            assert tiled.evidence_pairs == reference.evidence_pairs


# ----------------------------------------------------------------------
# The postings index and its memoization
# ----------------------------------------------------------------------
def _scan_violations(counts: dict[int, int], dc_mask: int) -> int:
    """The retired O(distinct) scan, kept as the index oracle."""
    return sum(c for mask, c in counts.items() if mask & dc_mask == dc_mask)


class TestEvidenceIndex:
    @settings(max_examples=25, deadline=None)
    @given(dc_relations(max_rows=10, allow_special=False), st.integers(0, 1 << 12))
    def test_intersection_matches_scan(self, relation, probe):
        space = build_predicate_space(relation)
        if not space.size:
            return
        evidence = build_evidence_set(relation, space)
        dc_mask = probe % (1 << space.size)
        expected = _scan_violations(evidence.counts, dc_mask)
        assert evidence.index.violations_of(dc_mask) == expected
        assert evidence.index.is_valid(dc_mask, 0) == (expected == 0)
        assert evidence.index.is_valid(dc_mask, expected)

    def test_violations_are_memoized_per_mask(self, places):
        space = build_predicate_space(places, order_predicates=False)
        evidence = build_evidence_set(places, space)
        mask = space.mask_of(
            (space.equality("District"), space.inequality("AreaCode"))
        )
        first = evidence.violations_of(mask)
        probes = evidence.index.probes
        assert evidence.violations_of(mask) == first
        assert evidence.violations_of(mask) == first
        # The cached path never re-enters the index.
        assert evidence.index.probes == probes

    def test_index_built_lazily_and_once(self, places):
        space = build_predicate_space(places, order_predicates=False)
        evidence = build_evidence_set(places, space)
        assert isinstance(evidence.index, EvidenceIndex)
        assert evidence.index is evidence.index
        assert evidence.index.num_distinct == evidence.num_distinct
        assert evidence.index.total_weight == sum(evidence.counts.values())


# ----------------------------------------------------------------------
# DC violation scans and conflict graphs
# ----------------------------------------------------------------------
class TestDCViolationScan:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(dc_relations(max_rows=10, allow_special=False))
    def test_matches_quadratic_oracle(self, backend, relation):
        if relation.num_rows < 2:
            return
        space = build_predicate_space(relation)
        if not space.predicates:
            return
        dc = DenialConstraint([space.predicates[0], space.predicates[-1]])
        oracle = set(dc.violations(relation.to_dicts()))
        got = dc_violating_pairs(relation, dc, tile=3)
        assert len(got) == len(set(got))
        assert set(got) == oracle

    def test_limit_truncates(self, places, backend):
        dc = DenialConstraint(
            [
                Predicate("District", Operator.EQ),
                Predicate("Region", Operator.EQ),
                Predicate("AreaCode", Operator.NE),
            ]
        )
        full = dc_violating_pairs(places, dc)
        assert full  # F1 is violated on Places
        assert len(dc_violating_pairs(places, dc, limit=1)) == 1

    def test_dc_conflict_graph_feeds_deletion_repair(self, places, backend):
        from repro.datarepair.deletion import minimum_deletion_repair

        dc = DenialConstraint(
            [
                Predicate("District", Operator.EQ),
                Predicate("Region", Operator.EQ),
                Predicate("AreaCode", Operator.NE),
            ]
        )
        graph = build_dc_conflict_graph(places, [dc])
        assert not graph.is_consistent
        assert graph.fds_violated() == [dc]
        oracle_edges = {
            (min(i, j), max(i, j)) for i, j in dc.violations(places.to_dicts())
        }
        assert {
            (c.left, c.right) for c in graph.conflicts
        } == oracle_edges
        repair = minimum_deletion_repair(places, [], conflict_graph=graph)
        assert repair.num_deleted > 0
        assert not dc.violations(repair.repaired.to_dicts())

    def test_conflict_cap_counts_unordered_edges(self, backend):
        # 6 rows all equal on A: not(t.A = s.A) has 15 unordered edges;
        # the cap must be met exactly on either backend (ordered hits
        # collapse 2:1, which used to halve the python backend's cap).
        relation = Relation.from_columns("cap", {"A": ["x"] * 6})
        dc = DenialConstraint([Predicate("A", Operator.EQ)])
        graph = build_dc_conflict_graph(relation, [dc], max_conflicts_per_dc=10)
        assert graph.num_conflicts == 10
        full = build_dc_conflict_graph(relation, [dc])
        assert full.num_conflicts == 15


# ----------------------------------------------------------------------
# Satellite: the seeded-permutation pair sampler
# ----------------------------------------------------------------------
class TestPermutedSampling:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40))
    def test_pair_decode_is_the_lexicographic_enumeration(self, n):
        expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert [_decode_pair(k, n) for k in range(len(expected))] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 320))
    def test_sampler_is_a_deterministic_permutation_prefix(self, total, budget):
        ids = list(_sampled_pair_ids(total, budget))
        assert len(ids) == min(budget, total)
        assert len(set(ids)) == len(ids)
        assert all(0 <= k < total for k in ids)
        assert ids == list(_sampled_pair_ids(total, budget))

    def test_sample_is_not_a_prefix_on_sorted_input(self):
        # 12 identical rows first, distinct rows after: a prefix sample
        # of 8 pairs would only ever see the all-equal evidence.
        values = ["dup"] * 12 + [f"x{i}" for i in range(12)]
        relation = Relation.from_columns("sorted", {"A": values, "B": values})
        space = build_predicate_space(relation, order_predicates=False)
        evidence = build_evidence_set(relation, space, max_pairs=8)
        assert evidence.sampled
        assert len(evidence.counts) > 1, (
            "sampling concentrated on the sorted prefix"
        )
        again = build_evidence_set(relation, space, max_pairs=8)
        assert evidence.counts == again.counts  # still deterministic


# ----------------------------------------------------------------------
# Satellite: the tile knob
# ----------------------------------------------------------------------
class TestTileKnob:
    def test_default(self):
        assert dc_engine._tile == EngineConfig().dc_tile == 4096

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_DC_TILE", "512")
        assert EngineConfig.from_env().dc_tile == 512
        monkeypatch.setenv("REPRO_DC_TILE", "0")
        with pytest.raises(ValueError):
            EngineConfig.from_env()
        monkeypatch.setenv("REPRO_DC_TILE", "many")
        with pytest.raises(ValueError):
            EngineConfig.from_env()

    def test_use_engine_tile_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DC_TILE", "512")
        with use_engine(dc_tile=64):
            assert dc_engine._tile == 64
        assert dc_engine._tile == 4096  # the variable is read at import only

    def test_tile_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(dc_tile=0)
        with pytest.raises(ValueError):
            EngineConfig(dc_tile=True)
        relation = Relation.from_columns("t", {"A": [1, 2], "B": [3, 4]})
        space = build_predicate_space(relation)
        for bad in (0, True, 2.5):
            with pytest.raises(ValueError, match="tile must be a positive integer"):
                build_evidence_tiled(relation, space, tile=bad)

    def test_engine_config_knob(self):
        with pytest.raises(ValueError):
            EngineConfig(dc_tile=0)
        with pytest.raises(ValueError):
            EngineConfig(dc_tile="big")
        EngineConfig(backend="python", dc_tile=128).activate()
        assert dc_engine._tile == 128
        assert kernels.active_backend_name() == "python"