"""The arbiter's memory half: one global budget divided across shards."""

import pytest

from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.core.budget import MemoryBudget, ResourceArbiter


def adaptive(num_keys):
    return AdaptiveBPlusTree.bulk_load_adaptive(
        [(key, key) for key in range(num_keys)]
    )


class TestAllocation:
    def test_unbounded_budget_passes_through(self):
        arbiter = ResourceArbiter(MemoryBudget.unbounded())
        arbiter.replace_group("", {"a": adaptive(100), "b": adaptive(100)})
        allocations = arbiter.rebalance()
        assert set(allocations) == {"a", "b"}
        assert all(not budget.bounded for budget in allocations.values())

    def test_relative_budget_composes_per_shard(self):
        arbiter = ResourceArbiter(MemoryBudget.relative(16.0))
        arbiter.replace_group("", {"a": adaptive(100), "b": adaptive(300)})
        allocations = arbiter.rebalance()
        assert all(budget.bits_per_key == 16.0 for budget in allocations.values())

    def test_absolute_budget_splits_proportionally(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(1_000_000), floor_bytes=1000)
        small, large = adaptive(100), adaptive(900)
        arbiter.replace_group("", {"small": small, "large": large})
        allocations = arbiter.rebalance()
        total = sum(budget.absolute_bytes for budget in allocations.values())
        assert total <= 1_000_000
        assert allocations["large"].absolute_bytes > allocations["small"].absolute_bytes
        # ~9x the keys -> roughly 9x the headroom above the floor.
        ratio = (allocations["large"].absolute_bytes - 1000) / (
            allocations["small"].absolute_bytes - 1000
        )
        assert ratio == pytest.approx(9.0, rel=0.05)

    def test_allocations_install_into_managers(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(500_000))
        index = adaptive(200)
        arbiter.replace_group("", {"only": index})
        allocations = arbiter.rebalance()
        assert index.manager.config.budget is allocations["only"]
        assert index.manager.config.budget.bounded

    def test_floor_protects_empty_members(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(1_000_000), floor_bytes=4096)
        arbiter.replace_group("", {"empty": adaptive(0), "full": adaptive(1000)})
        allocations = arbiter.rebalance()
        assert allocations["empty"].absolute_bytes >= 4096

    def test_tiny_budget_never_allocates_zero(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(3), floor_bytes=4096)
        arbiter.replace_group("", {"a": adaptive(10), "b": adaptive(10)})
        allocations = arbiter.rebalance()
        assert all(budget.absolute_bytes >= 1 for budget in allocations.values())

    def test_no_members_is_a_noop(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(1000))
        assert arbiter.rebalance() == {}


class TestAccounting:
    def test_membership_and_totals(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(10_000_000))
        arbiter.replace_group("", {"a": adaptive(100), "b": adaptive(200)})
        memory = arbiter.describe()["memory"]
        assert memory["members"] == 2
        assert memory["used_bytes"] > 0
        assert 0.0 < memory["utilization"] < 1.0
        arbiter.replace_group("a", {})
        assert arbiter.describe()["memory"]["members"] == 1
        arbiter.replace_group("", {})
        assert arbiter.describe()["memory"]["members"] == 0

    def test_replace_group_swaps_one_owners_members_and_rebalances(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(4_000_000))
        other = adaptive(100)
        arbiter.replace_group("", {"t1/shard-0": other, "t2/shard-0": adaptive(100)})
        left, right = adaptive(50), adaptive(50)
        allocations = arbiter.replace_group(
            "t2/shard-", {"t2/shard-0": left, "t2/shard-1": right}
        )
        assert set(allocations) == {"t1/shard-0", "t2/shard-0", "t2/shard-1"}
        for index in (other, left, right):
            assert index.manager.config.budget.bounded

    def test_exceeded_on_starved_budget(self):
        arbiter = ResourceArbiter(MemoryBudget.absolute(16))
        arbiter.replace_group("", {"a": adaptive(500)})
        assert arbiter.describe()["memory"]["utilization"] > 1.0

    def test_describe_is_json_safe(self):
        import json

        arbiter = ResourceArbiter(MemoryBudget.relative(12.0))
        arbiter.replace_group("", {"a": adaptive(50)})
        summary = arbiter.describe()
        json.dumps(summary)
        assert summary["memory"]["members"] == 1
        assert summary["memory"]["bits_per_key"] == 12.0

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            ResourceArbiter(MemoryBudget.unbounded(), floor_bytes=-1)
