"""Tests for minimal-DC mining and the FD bridge."""

import itertools

import pytest
from hypothesis import given, settings

from repro.dc.bridge import dc_to_fd, fd_to_dc, fds_among
from repro.dc.engine import discover_dcs
from repro.dc.evidence import build_evidence_set
from repro.dc.model import DCError, DenialConstraint, Operator, Predicate
from repro.dc.predicates import build_predicate_space
from repro.dc.search import mine_denial_constraints
from repro.fd.fd import fd
from repro.fd.measures import is_exact
from repro.relational.relation import Relation
from tests.strategies import small_relations


def _mine(relation, **kwargs):
    space = build_predicate_space(relation, order_predicates=False)
    evidence = build_evidence_set(relation, space)
    return space, mine_denial_constraints(evidence, **kwargs)


class TestBridge:
    def test_fd_to_dc_shape(self):
        dc = fd_to_dc(fd("[A, B] -> [C]"))
        ops = sorted(p.operator.value for p in dc.predicates)
        assert ops == ["!=", "=", "="]
        assert dc.attributes == frozenset({"A", "B", "C"})

    def test_fd_to_dc_requires_single_consequent(self):
        with pytest.raises(DCError):
            fd_to_dc(fd("A -> B, C"))

    def test_round_trip(self):
        original = fd("[X, Y] -> [Z]")
        assert dc_to_fd(fd_to_dc(original)) == original

    def test_dc_to_fd_rejects_non_fd_shapes(self):
        two_ne = DenialConstraint(
            [Predicate("A", Operator.NE), Predicate("B", Operator.NE)]
        )
        assert dc_to_fd(two_ne) is None
        with_order = DenialConstraint(
            [Predicate("A", Operator.EQ), Predicate("B", Operator.LT)]
        )
        assert dc_to_fd(with_order) is None
        only_eq = DenialConstraint([Predicate("A", Operator.EQ)])
        assert dc_to_fd(only_eq) is None


class TestMining:
    def test_key_yields_unit_dc(self):
        # A unique column: t.A = s.A alone never holds across a pair.
        relation = Relation.from_columns("r", {"A": ["x", "y", "z"], "B": ["1", "1", "2"]})
        space, result = _mine(relation, max_size=2)
        unit = DenialConstraint([Predicate("A", Operator.EQ)])
        assert unit in result.constraints

    def test_mined_fds_hold_on_instance(self, places):
        space, result = _mine(places, max_size=3)
        for mined in fds_among(result.constraints):
            assert is_exact(places, mined), f"{mined} mined but not exact"

    def test_mined_dcs_have_no_violations(self, places):
        space, result = _mine(places, max_size=3)
        evidence = build_evidence_set(places, space)
        for dc in result.constraints:
            assert evidence.violations_of(space.mask_of(dc.predicates)) == 0

    def test_mined_dcs_are_minimal(self, places):
        space, result = _mine(places, max_size=3)
        evidence = build_evidence_set(places, space)
        for dc in result.constraints:
            mask = space.mask_of(dc.predicates)
            for pred in dc.predicates:
                reduced = mask ^ (1 << space.index_of(pred))
                if reduced:
                    assert evidence.violations_of(reduced) > 0, (
                        f"{dc} is not minimal: dropping {pred} keeps it valid"
                    )

    def test_no_mined_dc_implies_another(self, places):
        space, result = _mine(places, max_size=3)
        for a, b in itertools.permutations(result.constraints, 2):
            assert not a.implies(b), f"{a} implies mined {b}"

    def test_max_constraints_caps_output(self, places):
        space, result = _mine(places, max_size=3, max_constraints=5)
        assert result.num_constraints == 5

    def test_max_size_bounds_constraint_size(self, places):
        space, result = _mine(places, max_size=2)
        assert all(dc.size <= 2 for dc in result.constraints)

    def test_approximate_mining_tolerates_pairs(self):
        # A -> B almost holds: one dirty pair of rows out of 6.
        relation = Relation.from_columns(
            "r",
            {"A": ["x", "x", "y", "y"], "B": ["1", "2", "3", "3"]},
        )
        space = build_predicate_space(relation, order_predicates=False)
        evidence = build_evidence_set(relation, space)
        exact = mine_denial_constraints(evidence, max_size=2)
        target = fd_to_dc(fd("A -> B"))
        assert target not in exact.constraints
        approx = mine_denial_constraints(evidence, max_size=2, max_violations=2)
        assert target in approx.constraints

    def test_invalid_max_size(self, places):
        space = build_predicate_space(places, order_predicates=False)
        evidence = build_evidence_set(places, space)
        with pytest.raises(DCError):
            mine_denial_constraints(evidence, max_size=0)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"max_violations": -1}, "max_violations must be >= 0"),
            ({"max_constraints": -1}, "max_constraints must be >= 0"),
        ],
    )
    def test_negative_bounds_rejected(self, places, bounds, message):
        space = build_predicate_space(places, order_predicates=False)
        evidence = build_evidence_set(places, space)
        with pytest.raises(DCError, match=message):
            mine_denial_constraints(evidence, **bounds)
        with pytest.raises(DCError, match=message):
            discover_dcs(places, space, **bounds)

    @settings(max_examples=20, deadline=None)
    @given(small_relations(max_rows=8, max_attrs=3))
    def test_completeness_against_brute_force(self, relation):
        """Property: mining finds exactly the minimal valid DCs ≤ max_size.

        Brute force enumerates every satisfiable predicate subset up to
        the bound, keeps the valid ones, and filters to minimal; mining
        must return the same set.
        """
        if relation.num_rows < 2:
            return
        space = build_predicate_space(relation, order_predicates=False)
        evidence = build_evidence_set(relation, space)
        max_size = 3
        result = mine_denial_constraints(evidence, max_size=max_size)

        valid: list[frozenset] = []
        preds = space.predicates
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(range(len(preds)), size):
                try:
                    DenialConstraint([preds[i] for i in combo])
                except DCError:
                    continue
                mask = sum(1 << i for i in combo)
                if evidence.violations_of(mask) == 0:
                    valid.append(frozenset(combo))
        minimal = [
            s for s in valid if not any(o < s for o in valid)
        ]
        expected = {
            frozenset(space.index_of(p) for p in DenialConstraint([preds[i] for i in s]).predicates)
            for s in minimal
        }
        got = {
            frozenset(space.index_of(p) for p in dc.predicates)
            for dc in result.constraints
        }
        assert got == expected
