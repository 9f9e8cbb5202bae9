"""Batched primitives must be exact drop-ins for their per-item loops.

``SkipSampler.consume`` promises bit-identical sampler state to the
equivalent ``is_sample`` loop, ``BloomFilter.add_many``/``contains_many``
must match per-item calls, ``OpCounters.add_many`` must merge like
repeated ``add``, and the memoized ``required_sample_size`` must return
what the uncached math returns.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.sampling import SkipSampler, required_sample_size
from repro.sim.counters import OpCounters


class TestSkipSamplerConsume:
    @settings(max_examples=60, deadline=None)
    @given(
        skip=st.integers(min_value=0, max_value=20),
        chunks=st.lists(st.integers(min_value=0, max_value=200), max_size=8),
    )
    def test_matches_is_sample_loop(self, skip, chunks):
        batched = SkipSampler(skip_length=skip)
        looped = SkipSampler(skip_length=skip)
        for count in chunks:
            offsets = batched.consume(count)
            expected = [
                offset for offset in range(count) if looped.is_sample()
            ]
            assert offsets == expected
            assert batched._countdown == looped._countdown

    def test_zero_skip_samples_everything(self):
        sampler = SkipSampler(skip_length=0)
        assert sampler.consume(5) == [0, 1, 2, 3, 4]

    def test_consume_zero_is_noop(self):
        sampler = SkipSampler(skip_length=3)
        before = sampler._countdown
        assert sampler.consume(0) == []
        assert sampler._countdown == before

    def test_skip_length_change_takes_effect_at_reload(self):
        batched = SkipSampler(skip_length=2)
        looped = SkipSampler(skip_length=2)
        batched.consume(4)
        for _ in range(4):
            looped.is_sample()
        batched.set_skip_length(7)
        looped.set_skip_length(7)
        assert batched.consume(40) == [
            offset for offset in range(40) if looped.is_sample()
        ]


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

    def test_contains_many_equals_membership_loop(self):
        bloom = BloomFilter(capacity=256)
        present = [f"in-{index}" for index in range(80)]
        bloom.add_many(present)
        probe = present + [f"out-{index}" for index in range(80)]
        assert bloom.contains_many(probe) == [item in bloom for item in probe]

    def test_double_hashing_matches_position_generator(self):
        bloom = BloomFilter(capacity=64)
        bloom.add("probe")
        for position in bloom._positions("probe"):
            assert (bloom._bits >> position) & 1

    def test_empty_batches(self):
        bloom = BloomFilter(capacity=8)
        bloom.add_many([])
        assert bloom.contains_many([]) == []
        assert bloom.approximate_count == 0


class TestCounterBatches:
    def test_add_many_equals_add_loop(self):
        batched = OpCounters()
        looped = OpCounters()
        events = {"a": 3, "b": 1, "c": 7}
        batched.add_many(events)
        batched.add_many({"a": 2})
        for event, amount in events.items():
            looped.add(event, amount)
        looped.add("a", 2)
        assert batched.snapshot() == looped.snapshot()


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
