"""Property tests: the numpy and python kernel backends are equivalent.

Every hot primitive — encoding, partition construction/refinement/
product, error counting, distinct counting, the EB entropies, and
violating-pair counting — must produce semantically identical results
on both backends, including NULL rows and the all-singleton /
all-duplicate edge cases.  Same-backend partitions are compared as
exact class lists — both backends emit the same first-seen class order
(including the reference's dense-scan row order), keeping witness
enumeration deterministic across backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import use_engine
from repro.eb.entropy import (
    conditional_entropy,
    entropy,
    joint_class_counts,
    variation_of_information,
)
from repro.fd.fd import fd
from repro.fd.measures import count_violating_pairs, violating_pairs
from repro.relational import kernels
from repro.relational.encoding import EncodedColumn
from repro.relational.relation import Relation

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


def canonical(partition):
    """Backend-independent view of a partition: a set of row sets."""
    return {frozenset(cls_rows) for cls_rows in partition.classes}


# ----------------------------------------------------------------------
# Strategies: small relations over two int-ish columns plus NULLs
# ----------------------------------------------------------------------
values = st.one_of(st.none(), st.integers(0, 4))
columns3 = st.tuples(
    st.lists(values, min_size=0, max_size=30),
    st.integers(0, 5),
    st.integers(0, 5),
)


def _relation(rows_a, card_b, card_c):
    n = len(rows_a)
    return Relation.from_columns(
        "r",
        {
            "A": rows_a,
            "B": [i % (card_b + 1) for i in range(n)],
            "C": [(i * 7 + 3) % (card_c + 1) for i in range(n)],
        },
    )


def _both_backends(build):
    """Run ``build`` on a fresh relation under each backend."""
    with use_engine(backend="python"):
        py = build()
    with use_engine(backend="numpy"):
        np_ = build()
    return py, np_


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
@given(st.lists(st.one_of(st.none(), st.integers(-10, 10))))
def test_factorize_int_columns_identical(values):
    py, np_ = _both_backends(lambda: EncodedColumn.from_values(values))
    assert py.codes == np_.codes
    assert py.dictionary == np_.dictionary
    assert py.values() == np_.values()


@given(st.lists(st.one_of(st.none(), st.text(max_size=3))))
def test_factorize_str_columns_identical(values):
    py, np_ = _both_backends(lambda: EncodedColumn.from_values(values))
    assert py.codes == np_.codes
    assert py.dictionary == np_.dictionary


@given(st.lists(st.one_of(st.none(), st.integers(0, 3), st.text(max_size=2))))
def test_factorize_mixed_columns_identical(values):
    """Mixed-type columns take the reference path on both backends."""
    py, np_ = _both_backends(lambda: EncodedColumn.from_values(values))
    assert py.codes == np_.codes
    assert py.dictionary == np_.dictionary


def test_factorize_huge_ints_fall_back():
    values = [2**80, -(2**90), 2**80, None]
    py, np_ = _both_backends(lambda: EncodedColumn.from_values(values))
    assert py.codes == np_.codes == [0, 1, 0, -1]
    assert py.dictionary == np_.dictionary


# ----------------------------------------------------------------------
# Partitions and counting
# ----------------------------------------------------------------------
@given(columns3)
@settings(max_examples=60)
def test_partitions_and_counts_identical(cols):
    rows_a, card_b, card_c = cols

    def build():
        rel = _relation(rows_a, card_b, card_c)
        single = rel.stripped_partition(["A"])
        pair = rel.stripped_partition(["A", "B"])
        triple = rel.stripped_partition(["A", "B", "C"])
        return {
            "single_classes": [list(c) for c in single.classes],
            # class order is backend-identical (first-seen, incl. the
            # reference's dense-path row order), so compare exactly
            "pair_classes": [list(c) for c in pair.classes],
            "triple_classes": [list(c) for c in triple.classes],
            "errors": (single.error(), pair.error(), triple.error()),
            "distinct": (
                single.num_distinct,
                pair.num_distinct,
                triple.num_distinct,
            ),
            "covered": (
                single.covered_rows,
                pair.covered_rows,
                triple.covered_rows,
            ),
            "refined_error": single.refined_error(
                rel.column("B").kernel_codes(), rel.column("C").kernel_codes()
            ),
            "product": canonical(
                rel.stripped_partition(["B"]).product(rel.stripped_partition(["C"]))
            ),
            "count_distinct": rel.count_distinct_raw(["A", "B", "C"]),
            "single_index": single.class_index(),
            "pair_index": pair.class_index(),
            "pair_index_sizes": pair.index_sizes(),
        }

    py, np_ = _both_backends(build)
    # Single-column construction pins first-seen class order on both
    # backends; multi-column products are compared canonically.
    assert py == np_


@given(columns3)
@settings(max_examples=40)
def test_cross_backend_partitions_interoperate(cols):
    """A python partition refines/products against numpy's and back."""
    rows_a, card_b, card_c = cols
    rel_py = _relation(rows_a, card_b, card_c)
    rel_np = _relation(rows_a, card_b, card_c)
    with use_engine(backend="python"):
        p_py = rel_py.stripped_partition(["A"])
        codes_py = rel_py.column("B").kernel_codes()
    with use_engine(backend="numpy"):
        p_np = rel_np.stripped_partition(["A"])
        codes_np = rel_np.column("B").kernel_codes()
        b_np = rel_np.stripped_partition(["B"])
    assert canonical(p_py.refine(codes_np)) == canonical(p_np.refine(codes_py))
    assert p_py.refined_error(codes_np) == p_np.refined_error(codes_py)
    # products across representations agree with same-backend products
    with use_engine(backend="python"):
        b_py = rel_py.stripped_partition(["B"])
    expected = canonical(p_py.product(b_py))
    assert canonical(p_np.product(b_py)) == expected
    assert canonical(p_py.product(b_np)) == expected
    assert canonical(p_np.product(b_np)) == expected


# ----------------------------------------------------------------------
# Entropies
# ----------------------------------------------------------------------
@given(columns3)
@settings(max_examples=40)
def test_entropies_identical(cols):
    rows_a, card_b, card_c = cols

    def build():
        rel = _relation(rows_a, card_b, card_c)
        pa = rel.stripped_partition(["A"])
        pb = rel.stripped_partition(["B"])
        return (
            entropy(pa),
            entropy(pb),
            conditional_entropy(pa, pb),
            conditional_entropy(pb, pa),
            variation_of_information(pa, pb),
        )

    py, np_ = _both_backends(build)
    assert py == pytest.approx(np_, abs=1e-9)


@given(columns3)
@settings(max_examples=30)
def test_joint_class_counts_identical(cols):
    rows_a, card_b, card_c = cols

    def build():
        rel = _relation(rows_a, card_b, card_c)
        return joint_class_counts(
            rel.stripped_partition(["A"]), rel.stripped_partition(["B"])
        )

    py, np_ = _both_backends(build)
    assert py == np_  # dict equality ignores iteration order


# ----------------------------------------------------------------------
# Violating pairs
# ----------------------------------------------------------------------
@given(columns3)
@settings(max_examples=40)
def test_violating_pair_counts_identical_and_exact(cols):
    rows_a, card_b, card_c = cols
    dependency = fd("[B, C] -> A")

    def build():
        rel = _relation(rows_a, card_b, card_c)
        if rel.column("A").has_nulls:
            return None
        return count_violating_pairs(rel, dependency)

    py, np_ = _both_backends(build)
    assert py == np_
    if py is not None:
        # cross-check against brute force on the python backend
        with use_engine(backend="python"):
            rel = _relation(rows_a, card_b, card_c)
            brute = 0
            for i in range(rel.num_rows):
                for j in range(i + 1, rel.num_rows):
                    ri, rj = rel.row(i), rel.row(j)
                    if (ri[1], ri[2]) == (rj[1], rj[2]) and ri[0] != rj[0]:
                        brute += 1
            assert py == brute
            # the witness sampler agrees on *whether* violations exist
            assert bool(violating_pairs(rel, dependency)) == bool(py)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "column",
    [
        [],  # empty relation
        [1],  # one row
        [None, None, None],  # all NULL (one shared class)
        [0, 1, 2, 3, 4, 5],  # all singletons: empty stripped partition
        [7, 7, 7, 7],  # all duplicates: one class
        [None, 0, None, 0],  # NULL class next to a value class
    ],
)
def test_edge_case_partitions_identical(column):
    def build():
        rel = Relation.from_columns("e", {"A": column})
        p = rel.stripped_partition(["A"])
        return (
            [list(c) for c in p.classes],
            p.num_rows,
            p.covered_rows,
            p.error(),
            p.num_distinct,
            p.num_singletons,
            p.class_index(),
            p.index_sizes(),
            [list(c) for c in p.to_partition().classes],
        )

    py, np_ = _both_backends(build)
    assert py == np_


def test_empty_attribute_set_partition_identical():
    def build():
        rel = Relation.from_columns("e", {"A": [1, 1, 2]})
        p = rel.stripped_partition([])
        return [list(c) for c in p.classes], p.num_distinct, p.error()

    py, np_ = _both_backends(build)
    assert py == np_
