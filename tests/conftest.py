"""Shared fixtures for the test suite (strategies live in tests/strategies.py)."""

from __future__ import annotations

import pytest

from repro.core.config import use_engine
from repro.datagen.places import places_catalog, places_relation
from repro.relational.relation import Relation


@pytest.fixture(autouse=True)
def _restore_engine():
    """Re-activate the suite's engine config after a test activates another."""
    with use_engine():
        yield


@pytest.fixture
def places():
    """The Figure 1 running-example relation."""
    return places_relation()


@pytest.fixture
def places_db():
    """A catalog holding Places with F1-F3 declared."""
    return places_catalog()


@pytest.fixture
def tiny_relation():
    """A 4-row, 3-attribute relation handy for exact-value tests."""
    return Relation.from_columns(
        "tiny",
        {
            "A": ["a1", "a1", "a2", "a2"],
            "B": ["b1", "b1", "b2", "b3"],
            "C": ["c1", "c1", "c2", "c2"],
        },
    )
