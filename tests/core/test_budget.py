"""Tests for memory budgets and the k estimate."""

import pytest

from repro.core.budget import MemoryBudget, estimate_expandable_k


class TestEstimateExpandableK:
    def test_paper_formula(self):
        # k = (mb - (nc*mc + nu*mu)) / (mu - mc)
        k = estimate_expandable_k(
            budget_bytes=100_000,
            compressed_count=100,
            compressed_avg_bytes=100.0,
            expanded_count=10,
            expanded_avg_bytes=1000.0,
        )
        # current = 10_000 + 10_000 = 20_000; headroom 80_000; growth 900
        assert k == 80_000 // 900

    def test_clamped_to_compressed_count(self):
        k = estimate_expandable_k(10**9, 5, 10.0, 0, 100.0)
        assert k == 5

    def test_over_budget_returns_zero(self):
        assert estimate_expandable_k(1_000, 100, 100.0, 0, 1000.0) == 0

    def test_zero_budget(self):
        assert estimate_expandable_k(0, 10, 1.0, 0, 2.0) == 0

    def test_free_expansion(self):
        assert estimate_expandable_k(10**6, 7, 100.0, 0, 100.0) == 7


class TestMemoryBudget:
    def test_unbounded(self):
        budget = MemoryBudget.unbounded()
        assert not budget.bounded
        assert budget.limit_bytes(100) == float("inf")
        assert not budget.exceeded(10**18, 1)
        assert budget.utilization(10**18, 1) == 0.0

    def test_absolute(self):
        budget = MemoryBudget.absolute(1000)
        assert budget.bounded
        assert budget.limit_bytes(123456) == 1000
        assert budget.exceeded(1001, 1)
        assert not budget.exceeded(1000, 1)
        assert budget.utilization(500, 1) == 0.5

    def test_relative(self):
        budget = MemoryBudget.relative(bits_per_key=16)
        assert budget.limit_bytes(1000) == 2000
        assert budget.exceeded(2001, 1000)
        assert not budget.exceeded(1999, 1000)

    def test_relative_over_no_keys_is_fully_used(self):
        budget = MemoryBudget.relative(bits_per_key=16)
        assert budget.utilization(64, 0) == float("inf")

    def test_relative_scales_with_keys(self):
        budget = MemoryBudget.relative(bits_per_key=8)
        assert budget.limit_bytes(2000) == 2 * budget.limit_bytes(1000)

    def test_both_set_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(absolute_bytes=10, bits_per_key=1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget.absolute(0)
        with pytest.raises(ValueError):
            MemoryBudget.relative(-1.0)
