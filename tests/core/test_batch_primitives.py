"""Batched primitives must be exact drop-ins for their per-item loops.

``BloomFilter.add_many`` (the Dual-Stage index's batched insert) must
match per-item ``add``, and the memoized ``required_sample_size`` must
return what the uncached math returns.
"""

import math

from repro.core.bloom import BloomFilter
from repro.core.sampling import required_sample_size


class TestBloomBatches:
    def test_add_many_equals_add_loop(self):
        batched = BloomFilter(capacity=256)
        looped = BloomFilter(capacity=256)
        items = [f"unit-{index}" for index in range(120)]
        batched.add_many(items)
        for item in items:
            looped.add(item)
        assert batched._bits == looped._bits
        assert batched.approximate_count == looped.approximate_count

    def test_double_hashing_matches_position_generator(self):
        bloom = BloomFilter(capacity=64)
        bloom.add("probe")
        for position in bloom._positions("probe"):
            assert (bloom._bits >> position) & 1

    def test_empty_batches(self):
        bloom = BloomFilter(capacity=8)
        bloom.add_many([])
        assert bloom.approximate_count == 0


class TestRequiredSampleSizeCache:
    def test_cached_value_matches_formula(self):
        population, k, epsilon, delta = 10_000, 50, 0.05, 0.05
        expected = max(
            1,
            math.ceil(
                (2.0 / epsilon**2)
                * math.log((2 * population + k * (population - k)) / delta)
            ),
        )
        assert required_sample_size(population, k, epsilon, delta) == expected
        # Second call hits the LRU cache and must agree.
        assert required_sample_size(population, k, epsilon, delta) == expected

    def test_validation_still_runs_before_cache(self):
        import pytest

        with pytest.raises(ValueError):
            required_sample_size(100, 5, epsilon=1.5)
        with pytest.raises(ValueError):
            required_sample_size(100, 5, delta=0.0)
        assert required_sample_size(0, 5) == 0

    def test_k_is_clamped(self):
        assert required_sample_size(100, 500) == required_sample_size(100, 100)
