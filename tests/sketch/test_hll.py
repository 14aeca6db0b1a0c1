"""HyperLogLog: determinism, cross-backend identity, stated accuracy."""

from __future__ import annotations

import pytest

from repro.core.config import use_engine
from repro.relational import kernels
from repro.sketch.hll import (
    HyperLogLog,
    hash_value,
    splitmix64,
    splitmix64_lanes,
)

BACKENDS = kernels.available_backends()


class TestSplitmix64:
    def test_deterministic_and_64_bit(self):
        values = [splitmix64(i) for i in range(100)]
        assert values == [splitmix64(i) for i in range(100)]
        assert all(0 <= v < 2 ** 64 for v in values)
        assert len(set(values)) == 100

    def test_seed_changes_stream(self):
        assert hash_value(42, seed=0) != hash_value(42, seed=1)

    @pytest.mark.skipif(
        "numpy" not in BACKENDS, reason="numpy backend unavailable"
    )
    def test_lanes_match_scalar(self):
        import numpy as np

        seed_mix = (9 * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        lanes = np.arange(1000, dtype=np.uint64)
        vectorized = splitmix64_lanes(lanes, seed=9)
        scalar = [splitmix64(v ^ seed_mix) for v in range(1000)]
        assert [int(v) for v in vectorized] == scalar


class TestHashValue:
    def test_types_hash_stably(self):
        for value in (0, -17, 3.5, "abc", None, ("a", 1)):
            assert hash_value(value) == hash_value(value)

    def test_distinct_values_distinct_hashes(self):
        values = [f"v{i}" for i in range(500)] + list(range(500))
        hashes = {hash_value(v) for v in values}
        assert len(hashes) == len(values)

    def test_str_and_int_do_not_collide(self):
        assert hash_value("1") != hash_value(1)


class TestHyperLogLog:
    def test_precision_validation(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=19)

    def test_empty_counts_zero(self):
        assert HyperLogLog(precision=12).count() == 0.0

    @pytest.mark.parametrize("n", [10, 1_000, 50_000])
    def test_count_within_stated_bound(self, n):
        sketch = HyperLogLog(precision=14)
        sketch.add_ints(range(n))
        estimate = sketch.count()
        assert abs(estimate - n) <= max(n * sketch.error_bound, 1.0)

    def test_small_range_linear_counting_is_tight(self):
        sketch = HyperLogLog(precision=14)
        sketch.add_ints(range(100))
        assert abs(sketch.count() - 100) <= 2

    def test_duplicates_do_not_inflate(self):
        sketch = HyperLogLog(precision=12)
        for _ in range(50):
            sketch.add_ints(range(200))
        assert abs(sketch.count() - 200) <= 200 * sketch.error_bound + 1

    def test_merge_equals_union(self):
        left = HyperLogLog(precision=12, seed=5)
        right = HyperLogLog(precision=12, seed=5)
        whole = HyperLogLog(precision=12, seed=5)
        left.add_ints(range(0, 3000))
        right.add_ints(range(2000, 5000))
        whole.add_ints(range(0, 5000))
        left.merge(right)
        assert bytes(left.registers) == bytes(whole.registers)

    def test_merge_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=12).merge(HyperLogLog(precision=13))

    @pytest.mark.skipif(
        "numpy" not in BACKENDS, reason="numpy backend unavailable"
    )
    def test_registers_identical_across_backends(self):
        import numpy as np

        hashes = [splitmix64(i) for i in range(20_000)]
        with use_engine(backend="python"):
            scalar = HyperLogLog(precision=13)
            scalar.add_hashes(hashes)
        with use_engine(backend="numpy"):
            vectorized = HyperLogLog(precision=13)
            vectorized.add_hashes(np.asarray(hashes, dtype=np.uint64))
        assert bytes(scalar.registers) == bytes(vectorized.registers)

    def test_error_bound_shrinks_with_precision(self):
        coarse = HyperLogLog(precision=8)
        fine = HyperLogLog(precision=14)
        assert fine.error_bound < coarse.error_bound
        assert fine.relative_error == pytest.approx(1.04 / (2 ** 7))
