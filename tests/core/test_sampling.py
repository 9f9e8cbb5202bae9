"""Tests for Equation (1) and the skip sampler."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    SkipSampler,
    adjust_skip_length,
    required_sample_size,
)


class TestRequiredSampleSize:
    def test_matches_equation(self):
        n, k, eps, delta = 1_000_000, 1000, 0.05, 0.05
        expected = math.ceil(
            (2 / eps**2) * math.log((2 * n + k * (n - k)) / delta)
        )
        assert required_sample_size(n, k, eps, delta) == expected

    def test_grows_quadratically_with_inverse_epsilon(self):
        small = required_sample_size(10**6, 1000, 0.10)
        large = required_sample_size(10**6, 1000, 0.05)
        assert 3.0 < large / small < 4.5  # ~4x plus the log term

    def test_paper_figure2_scale(self):
        # Figure 2's order of magnitude: O(100k) samples at eps=2%, a few
        # thousand at eps=10% (the paper's exact constants differ slightly
        # in the log argument; see EXPERIMENTS.md).
        assert 80_000 < required_sample_size(10**6, 1000, 0.02) < 250_000
        assert 3_000 < required_sample_size(10**6, 250, 0.10) < 15_000

    def test_empty_population(self):
        assert required_sample_size(0, 10) == 0

    def test_k_clamped_to_population(self):
        assert required_sample_size(10, 1000) == required_sample_size(10, 10)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            required_sample_size(100, 10, epsilon=0.0)
        with pytest.raises(ValueError):
            required_sample_size(100, 10, epsilon=1.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            required_sample_size(100, 10, delta=1.5)


class TestSkipSampler:
    def test_skip_zero_samples_everything(self):
        sampler = SkipSampler(0)
        assert all(sampler.is_sample() for _ in range(10))

    def test_skip_n_samples_every_n_plus_one(self):
        sampler = SkipSampler(3)
        outcomes = [sampler.is_sample() for _ in range(12)]
        assert outcomes == [False, False, False, True] * 3

    def test_sampling_rate(self):
        sampler = SkipSampler(9)
        samples = sum(sampler.is_sample() for _ in range(1000))
        assert samples == 100

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            SkipSampler(-1)

    def test_set_skip_takes_effect_on_reload(self):
        sampler = SkipSampler(1)
        assert not sampler.is_sample()
        sampler.set_skip_length(4)
        assert sampler.is_sample()  # old countdown expires
        # New countdown uses the updated skip of 4.
        outcomes = [sampler.is_sample() for _ in range(5)]
        assert outcomes == [False, False, False, False, True]


class TestAdjustSkipLength:
    def test_stable_workload_increases_skip(self):
        assert adjust_skip_length(100, migrated=1, sampled=1000) == 200

    def test_shifting_workload_decreases_skip(self):
        assert adjust_skip_length(200, migrated=400, sampled=1000) == 100

    def test_middle_band_keeps_skip(self):
        assert adjust_skip_length(100, migrated=200, sampled=1000) == 100

    def test_clamped_to_range(self):
        assert adjust_skip_length(400, migrated=0, sampled=100, skip_max=500) == 500
        assert adjust_skip_length(60, migrated=90, sampled=100, skip_min=50) == 50

    def test_zero_samples_clamps_only(self):
        assert adjust_skip_length(1000, migrated=0, sampled=0, skip_max=500) == 500


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=1, max_value=10**5),
)
def test_sample_size_monotone_in_population(n, k):
    smaller = required_sample_size(n, k)
    larger = required_sample_size(n * 2, k)
    assert larger >= smaller


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=500))
def test_skip_sampler_exact_rate(skip, rounds):
    sampler = SkipSampler(skip)
    total = rounds * (skip + 1)
    assert sum(sampler.is_sample() for _ in range(total)) == rounds

