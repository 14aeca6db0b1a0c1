"""The seeded query-stream generator (``repro.datagen.queries``)."""

from __future__ import annotations

import pytest

from repro.datagen import QUERY_KINDS, generate_tpch, generate_workload
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.sql import execute
from tests.oracles import rowdict


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch("tiny", seed=7)


class TestDeterminism:
    def test_same_seed_same_stream(self, catalog):
        first = generate_workload(catalog, count=15, seed=3)
        second = generate_workload(catalog, count=15, seed=3)
        assert first == second

    def test_different_seeds_differ(self, catalog):
        first = generate_workload(catalog, count=15, seed=3)
        second = generate_workload(catalog, count=15, seed=4)
        assert [q.sql for q in first] != [q.sql for q in second]

    def test_names_are_sequential(self, catalog):
        queries = generate_workload(catalog, count=8, seed=0)
        for index, query in enumerate(queries):
            assert query.name == f"q{index:03d}_{query.kind}"


class TestCoverage:
    def test_all_kinds_appear_on_tpch(self, catalog):
        queries = generate_workload(catalog, count=24, seed=1)
        assert len(queries) == 24
        assert {q.kind for q in queries} == set(QUERY_KINDS)

    def test_kinds_subset(self, catalog):
        queries = generate_workload(catalog, count=6, seed=1, kinds=("point",))
        assert all(q.kind == "point" for q in queries)

    def test_unknown_kind_rejected(self, catalog):
        with pytest.raises(ValueError, match="unknown query kind 'nope'"):
            generate_workload(catalog, count=1, kinds=("nope",))

    def test_degenerate_catalog_short_stream(self):
        catalog = Catalog()
        catalog.add_relation(Relation.from_columns("t", {"A": []}))
        queries = generate_workload(catalog, count=10, seed=0)
        assert queries == []


class TestValidity:
    def test_every_query_executes_on_both_engines(self, catalog):
        queries = generate_workload(catalog, count=18, seed=2016)
        assert queries
        for query in queries:
            columnar = execute(catalog, query.sql)
            oracle = rowdict.execute(catalog, query.sql)
            assert columnar.columns == oracle.columns, query.name
            assert columnar.rows == oracle.rows, query.name

    def test_table_tag_matches_from_clause(self, catalog):
        for query in generate_workload(catalog, count=12, seed=5):
            assert f"FROM {query.table}" in query.sql
