"""Out-of-core profiling vs the in-memory engine — same answers.

Every profile primitive (:mod:`repro.storage.profile`) is
cross-checked against its in-memory counterpart on the materialized
relation.  All checks run on both backends.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.core.config import use_engine
from repro.datagen.realworld import country_relation
from repro.fd.fd import FDSyntaxError, FunctionalDependency
from repro.fd.measures import assess, count_violating_pairs
from repro.relational import kernels
from repro.relational.relation import Relation
from repro.storage.profile import (
    assess_fd,
    distinct_count,
    evidence_sample,
    group_size_histogram,
    group_stats,
    sample_rows,
    tane_level1,
    violating_pairs_count,
)

BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def country():
    return country_relation()


@pytest.fixture(scope="module")
def store(country, tmp_path_factory):
    store = country.to_store(
        str(tmp_path_factory.mktemp("profile") / "country"), chunk_rows=37
    )
    yield store
    store.close()


def _exact_entropy(relation: Relation, attrs) -> float:
    counts = Counter(
        tuple(row[relation.schema.position(a)] for a in attrs)
        for row in relation.rows()
    )
    n = relation.num_rows
    return -sum((c / n) * math.log(c / n) for c in counts.values())


@pytest.mark.parametrize("backend", BACKENDS)
class TestExactMatchesInMemory:
    def test_distinct_counts(self, backend, store, country):
        with use_engine(backend=backend):
            for attrs in (
                ("Region",),
                ("Region", "GovernmentForm"),
                ("Region", "HeadOfState", "Continent"),
            ):
                got = distinct_count(store, attrs)
                assert got == country.count_distinct(attrs)

    def test_group_stats(self, backend, store, country):
        attrs = ("Region", "GovernmentForm")
        with use_engine(backend=backend):
            stats = group_stats(store, attrs)
        counts = Counter(
            (row[0], row[1])
            for row in country.project(attrs).rows()
        )
        assert stats.num_rows == country.num_rows
        assert stats.distinct == len(counts)
        assert stats.agreeing_pairs == sum(
            c * (c - 1) // 2 for c in counts.values()
        )
        assert stats.entropy == pytest.approx(
            _exact_entropy(country, attrs)
        )

    def test_group_size_histogram(self, backend, store, country):
        attrs = ("Region",)
        with use_engine(backend=backend):
            histogram = group_size_histogram(store, attrs)
        counts = Counter(row[0] for row in country.project(attrs).rows())
        expected = Counter(counts.values())
        assert histogram == dict(expected)

    def test_assess_fd(self, backend, store, country):
        with use_engine(backend=backend):
            got = assess_fd(store, ("Region",), ("GovernmentForm",))
        want = assess(
            country, FunctionalDependency(("Region",), ("GovernmentForm",))
        )
        assert got.confidence == pytest.approx(want.confidence)
        assert got.goodness == want.goodness
        assert got.is_exact_fd == (want.confidence == 1.0)

    def test_violating_pairs(self, backend, store, country):
        fd = FunctionalDependency(("Region",), ("GovernmentForm",))
        with use_engine(backend=backend):
            got = violating_pairs_count(store, ("Region",), ("GovernmentForm",))
        assert got == count_violating_pairs(country, fd)

    def test_tane_level1(self, backend, store, country):
        attrs = ("Region", "GovernmentForm", "Continent", "HeadOfState")
        with use_engine(backend=backend):
            found = tane_level1(store, attrs)
        expected = []
        for a in attrs:
            for b in attrs:
                if a != b and country.count_distinct(
                    (a, b)
                ) == country.count_distinct((a,)):
                    expected.append((a, b))
        assert sorted(found) == sorted(expected)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEmptyAttributeSet:
    """``()`` groups every row together, as ``count_distinct(())`` does."""

    def test_one_group_of_all_rows(self, backend, store, country):
        n = country.num_rows
        with use_engine(backend=backend):
            assert distinct_count(store, ()) == country.count_distinct(()) == 1
            stats = group_stats(store, ())
            assert group_size_histogram(store, ()) == {n: 1}
        assert (stats.distinct, stats.agreeing_pairs) == (1, n * (n - 1) // 2)
        assert stats.entropy == 0.0

    def test_empty_antecedent_is_an_fd_syntax_error(self, backend, store):
        with pytest.raises(FDSyntaxError) as in_memory:
            FunctionalDependency((), ("Region",))
        with use_engine(backend=backend):
            for profile in (assess_fd, violating_pairs_count):
                with pytest.raises(FDSyntaxError) as excinfo:
                    profile(store, (), ("Region",))
                assert str(excinfo.value) == str(in_memory.value)

    def test_no_group_on_an_empty_store(self, backend, country, tmp_path):
        empty = Relation.from_rows(country.schema, [], validate=False)
        store = empty.to_store(str(tmp_path / "empty"))
        try:
            with use_engine(backend=backend):
                assert distinct_count(store, ()) == empty.count_distinct(()) == 0
                assert group_stats(store, ()).distinct == 0
                assert group_size_histogram(store, ()) == {}
        finally:
            store.close()


class TestSampling:
    def test_sample_rows_deterministic_and_real(self, store, country):
        rows_a = sample_rows(store, 50, seed=3)
        rows_b = sample_rows(store, 50, seed=3)
        assert rows_a == rows_b
        assert len(rows_a) == 50
        population = set(country.rows())
        assert all(tuple(row) in population for row in rows_a)

    def test_sample_capped_at_population(self, store, country):
        rows = sample_rows(store, 10 ** 6, seed=0)
        assert len(rows) == country.num_rows

    def test_evidence_sample_shape(self, store):
        for backend in BACKENDS:
            with use_engine(backend=backend):
                evidence = evidence_sample(
                    store,
                    sample=40,
                    attributes=("Region", "GovernmentForm", "Continent"),
                )
            assert evidence.total_pairs == 40 * 39

    def test_no_spill_files_left_behind(self, store):
        distinct_count(store, ("Region", "GovernmentForm"))
        leftovers = list(store.directory.glob("*.groupspill"))
        assert leftovers == []
