"""Tests for levelwise FD discovery."""

import pytest
from hypothesis import given, settings

from tests.oracles.tane import discover_fds_plain
from tests.strategies import relations
from repro.datagen.places import F1, places_relation
from repro.discovery.tane import discover_fds
from repro.fd.fd import FunctionalDependency, fd
from repro.fd.measures import confidence, is_exact
from repro.relational.relation import Relation


@pytest.fixture
def simple():
    return Relation.from_columns(
        "r",
        {
            "A": ["a1", "a1", "a2", "a2"],
            "B": ["b1", "b1", "b2", "b2"],  # A <-> B
            "C": ["c1", "c2", "c1", "c2"],
            "D": ["d1", "d2", "d3", "d4"],  # key
        },
    )


class TestDiscovery:
    def test_finds_bidirectional_fd(self, simple):
        result = discover_fds(simple, max_lhs_size=1)
        found = {str(item.fd) for item in result.exact()}
        assert "[A] -> [B]" in found
        assert "[B] -> [A]" in found

    def test_key_determines_everything(self, simple):
        result = discover_fds(simple, max_lhs_size=1)
        for rhs in ("A", "B", "C"):
            assert FunctionalDependency(("D",), (rhs,)) in {
                item.fd for item in result.fds
            }

    def test_minimality(self, simple):
        """No discovered FD's antecedent strictly contains another's
        for the same consequent."""
        result = discover_fds(simple, max_lhs_size=3)
        by_rhs: dict[str, list[frozenset]] = {}
        for item in result.fds:
            by_rhs.setdefault(item.fd.consequent[0], []).append(
                frozenset(item.fd.antecedent)
            )
        for antecedents in by_rhs.values():
            for a in antecedents:
                for b in antecedents:
                    assert not (a < b)

    def test_pairs_discovered_at_level_two(self, simple):
        result = discover_fds(simple, max_lhs_size=2)
        assert FunctionalDependency(("A", "C"), ("D",)) in {
            item.fd for item in result.fds
        }

    def test_max_lhs_size_bound(self, simple):
        result = discover_fds(simple, max_lhs_size=1)
        assert all(len(item.fd.antecedent) == 1 for item in result.fds)
        assert result.levels_explored == 1

    def test_nullable_attributes_skipped(self):
        relation = Relation.from_columns(
            "r", {"A": ["x", "x"], "B": ["1", "1"], "C": [None, "c"]}
        )
        result = discover_fds(relation)
        attrs_used = {
            attr for item in result.fds for attr in item.fd.attributes
        }
        assert "C" not in attrs_used

    def test_attribute_pool_restriction(self, simple):
        result = discover_fds(simple, attributes=["A", "B"])
        assert {str(i.fd) for i in result.fds} == {"[A] -> [B]", "[B] -> [A]"}

    def test_approximate_mode(self):
        relation = Relation.from_columns(
            "r",
            {
                "A": ["a1", "a1", "a1", "a2"],
                "B": ["b1", "b1", "b2", "b3"],  # A -> B holds at c = 2/3
            },
        )
        exact_only = discover_fds(relation, min_confidence=1.0)
        assert fd("A -> B") not in {i.fd for i in exact_only.fds}
        approx = discover_fds(relation, min_confidence=0.6)
        found = {i.fd: i.confidence for i in approx.fds}
        assert found[fd("A -> B")] == pytest.approx(2 / 3)

    def test_bad_confidence_rejected(self, simple):
        with pytest.raises(ValueError):
            discover_fds(simple, min_confidence=0.0)

    def test_accounting_fields(self, simple):
        result = discover_fds(simple, max_lhs_size=2)
        assert result.candidates_tested > 0
        assert result.elapsed_seconds >= 0


class TestExtensionsLookup:
    def test_extensions_of_declared_fd_missing_on_places(self):
        """The paper's §2 complaint, live on its own running example:
        [Municipal] -> [AreaCode] alone holds on Places, so minimal-FD
        discovery never reports the designer-relevant extension
        [District, Region, Municipal] -> [AreaCode], and the
        discover-then-relax strategy finds NO extension of F1 — while
        the CB repair search does."""
        places = places_relation()
        result = discover_fds(places, max_lhs_size=3)
        discovered = {item.fd for item in result.fds}
        assert FunctionalDependency(("Municipal",), ("AreaCode",)) in discovered
        assert result.extensions_of(F1) == []

    def test_minimality_can_hide_extensions(self, simple):
        """The paper's §2 complaint: if a *smaller* antecedent determines
        the consequent, discovery reports that one, and no extension of
        the designer's FD appears."""
        declared = fd("C -> B")  # violated; but A -> B alone holds
        result = discover_fds(simple, max_lhs_size=1)
        assert result.extensions_of(declared) == []


@given(relations(min_rows=1, max_rows=15, max_attrs=4))
@settings(max_examples=25, deadline=None)
def test_property_discovered_fds_hold(relation):
    """Soundness: every discovered exact FD is exact on the instance;
    approximate ones meet the threshold."""
    result = discover_fds(relation, max_lhs_size=2, min_confidence=0.8)
    for item in result.fds:
        assert confidence(relation, item.fd) >= 0.8
        if item.is_exact:
            assert is_exact(relation, item.fd)


class TestStrippedVsPlainEngine:
    """The stripped-partition lattice engine and the plain distinct-count
    oracle (``tests/oracles/tane.py``) return identical results."""

    def test_plain_engine_on_places(self):
        places = places_relation()
        new = discover_fds(places, max_lhs_size=3)
        old = discover_fds_plain(places, max_lhs_size=3)
        assert [(d.fd, d.confidence) for d in new.fds] == [
            (d.fd, d.confidence) for d in old.fds
        ]
        assert new.candidates_tested == old.candidates_tested
        assert new.levels_explored == old.levels_explored

    @given(relations(min_rows=0, max_rows=18, max_attrs=5))
    @settings(max_examples=40, deadline=None)
    def test_property_identical_exact_fds(self, relation):
        new = discover_fds(relation, max_lhs_size=3)
        old = discover_fds_plain(relation, max_lhs_size=3)
        assert [(d.fd, d.confidence) for d in new.fds] == [
            (d.fd, d.confidence) for d in old.fds
        ]
        assert new.candidates_tested == old.candidates_tested

    @given(relations(min_rows=1, max_rows=15, max_attrs=4))
    @settings(max_examples=25, deadline=None)
    def test_property_identical_approximate_fds(self, relation):
        new = discover_fds(relation, max_lhs_size=2, min_confidence=0.7)
        old = discover_fds_plain(relation, max_lhs_size=2, min_confidence=0.7)
        assert [(d.fd, d.confidence) for d in new.fds] == [
            (d.fd, d.confidence) for d in old.fds
        ]
