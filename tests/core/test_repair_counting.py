"""Search invariance: count-only candidate scoring changes no result.

The repair search scores every one-attribute extension off the cached
π_X without materializing π_XA or π_XAY
(``RelationStatistics.extension_counts``).  This suite re-runs
Algorithm 3 with an oracle that scores with ``count_distinct_raw``
alone — no memo, no partitions, no trackers — and requires identical
repairs, search statistics and count-query totals, on both kernel
backends, in first-repair and find-all mode.
"""

from __future__ import annotations

import heapq

import pytest

from repro.core.candidates import Candidate, order_key
from repro.core.config import GoodnessMode, RepairConfig, use_engine
from repro.core.repair import find_repairs
from repro.datagen.engineered import engineered_relation
from repro.datagen.places import F1, F2, F3, places_relation
from repro.datagen.realworld import country_spec, image_spec
from repro.datagen.veterans import VETERANS_FD, veterans_relation
from repro.fd.measures import FDAssessment
from repro.relational import kernels

BACKENDS = kernels.available_backends()
MODES = {
    "first": RepairConfig.find_first(),
    "all": RepairConfig.find_all(max_added_attributes=2),
}


class RawCounter:
    """Uncached counting with a record of every attribute set asked."""

    def __init__(self, relation):
        self.relation = relation
        self.values: dict[frozenset[str], int] = {}

    def __call__(self, attrs) -> int:
        key = frozenset(attrs)
        if key not in self.values:
            self.values[key] = self.relation.count_distinct_raw(sorted(key))
        return self.values[key]


def oracle_extend(relation, fd, config, base, count):
    """Algorithm 2 scored with raw distinct counts only."""
    y = list(fd.consequent)
    distinct_y = count(y)
    candidates = []
    for attr in relation.attribute_names:
        if attr in fd.attributes or relation.column(attr).has_nulls:
            continue
        if config.exclude_unique and count([attr]) == relation.num_rows:
            continue
        extended = fd.extended(attr)
        distinct_xa = count(extended.antecedent)
        distinct_xay = count(list(extended.antecedent) + y)
        candidates.append(
            Candidate(
                fd=extended,
                base=base,
                added=extended.added_over(base),
                confidence=distinct_xa / distinct_xay if distinct_xay else 1.0,
                goodness=distinct_xa - distinct_y,
            )
        )
    candidates.sort(key=lambda c: order_key(c, config.candidate_order))
    return candidates


def oracle_search(relation, fd, config):
    """Algorithm 3 over :func:`oracle_extend`; returns the result fields
    the comparison pins plus the number of distinct sets counted."""
    count = RawCounter(relation)
    x, y = list(fd.antecedent), list(fd.consequent)
    assessment = FDAssessment(
        fd=fd, distinct_x=count(x), distinct_xy=count(x + y), distinct_y=count(y)
    )
    repairs, over, explored, enqueued = [], [], 0, 0
    if not assessment.is_exact:

        def queue_key(candidate):
            return (candidate.num_added, *order_key(candidate, config.candidate_order))

        heap, visited, counter = [], set(), 0
        for candidate in oracle_extend(relation, fd, config, fd, count):
            visited.add(frozenset(candidate.added))
            heapq.heappush(heap, (queue_key(candidate), counter, candidate))
            counter += 1
            enqueued += 1
        while heap:
            if config.max_expansions is not None and explored >= config.max_expansions:
                break
            _, _, candidate = heapq.heappop(heap)
            explored += 1
            if candidate.is_exact:
                if config.within_threshold(candidate.goodness):
                    repairs.append(candidate)
                    if config.stop_at_first:
                        break
                elif config.goodness_mode is GoodnessMode.PREFER:
                    over.append(candidate)
                continue
            if (
                config.max_added_attributes is not None
                and candidate.num_added >= config.max_added_attributes
            ):
                continue
            for child in oracle_extend(relation, candidate.fd, config, fd, count):
                key = frozenset(child.added)
                if key in visited:
                    continue
                visited.add(key)
                heapq.heappush(heap, (queue_key(child), counter, child))
                counter += 1
                enqueued += 1
    return {
        "assessment": (assessment.confidence, assessment.goodness),
        "repairs": repairs,
        "over_threshold": over,
        "explored": explored,
        "enqueued": enqueued,
        "count_queries": len(count.values),
    }


def engine_search(relation, fd, config):
    relation.stats.clear()
    result = find_repairs(relation, fd, config)
    return {
        "assessment": (result.assessment.confidence, result.assessment.goodness),
        "repairs": result.repairs,
        "over_threshold": result.over_threshold,
        "explored": result.explored,
        "enqueued": result.enqueued,
        "count_queries": relation.stats.executed_count_queries,
    }


def _workloads():
    places = places_relation()
    veterans = veterans_relation(num_attrs=12, num_rows=600, seed=5)
    country = country_spec(1.0, 7)
    image = image_spec(0.01, 7)
    return [
        ("places-F1", places, F1),
        ("places-F2", places, F2),
        ("places-F3", places, F3),
        ("veterans", veterans, VETERANS_FD),
        ("country", engineered_relation(country), country.fd),
        ("image", engineered_relation(image), image.fd),
    ]


WORKLOADS = _workloads()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize(
    "name, relation, fd", WORKLOADS, ids=[name for name, _, _ in WORKLOADS]
)
def test_search_matches_raw_count_oracle(backend, mode, name, relation, fd):
    config = MODES[mode]
    with use_engine(backend=backend):
        engine = engine_search(relation, fd, config)
    assert engine == oracle_search(relation, fd, config)


@pytest.mark.parametrize("backend", BACKENDS)
def test_places_golden_values(backend):
    golden = {F1: (0.5, -2), F2: (2 / 3, -1), F3: (8 / 9, 1)}
    relation = places_relation()
    with use_engine(backend=backend):
        for fd, (confidence, goodness) in golden.items():
            engine = engine_search(relation, fd, RepairConfig.find_first())
            assert engine["assessment"][0] == pytest.approx(confidence, abs=1e-9)
            assert engine["assessment"][1] == goodness


def test_searches_find_repairs():
    """Guard against a vacuous comparison: most workloads are violated
    and repairable, so the oracle has real work to agree with."""
    found = [
        name
        for name, relation, fd in WORKLOADS
        if engine_search(relation, fd, MODES["all"])["repairs"]
    ]
    assert len(found) >= 4
