"""Tenant directory: shard groups, arbiter wiring, memory carve, restart."""

import pytest

from repro.core.budget import MemoryBudget, TenantQuota
from repro.net.tenancy import TenantDirectory, TenantSpec, demo_directory


class TestTenantSpec:
    def test_rejects_empty_and_oversized_names(self):
        with pytest.raises(ValueError):
            TenantSpec(name="")
        with pytest.raises(ValueError):
            TenantSpec(name="x" * 256)
        TenantSpec(name="x" * 255)  # boundary is fine

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", num_shards=0)


class TestTenantDirectory:
    def test_requires_tenants_and_unique_names(self):
        with pytest.raises(ValueError):
            TenantDirectory([])
        with pytest.raises(ValueError):
            TenantDirectory([TenantSpec(name="a"), TenantSpec(name="a")])

    def test_groups_are_private(self):
        with demo_directory(["a", "b"], keys_per_tenant=100) as directory:
            router_a = directory.router_for("a")
            router_b = directory.router_for("b")
            assert router_a is not router_b
            router_a.put(999_999, 1)
            assert router_a.get(999_999) == 1
            assert router_b.get(999_999) is None

    def test_per_tenant_shard_counts(self):
        specs = [
            TenantSpec(name="hot", num_shards=4),
            TenantSpec(name="cold", num_shards=1),
        ]
        with TenantDirectory(specs) as directory:
            assert directory.router_for("hot").num_shards == 4
            assert directory.router_for("cold").num_shards == 1
            assert directory.num_shards == 5

    def test_arbiter_has_every_tenant_and_shard_member(self):
        with demo_directory(["a", "b"], keys_per_tenant=50, num_shards=2) as directory:
            assert directory.arbiter.tenants() == ["a", "b"]
            members = set(directory.arbiter.rebalance())
            assert members == {"a/shard-0", "a/shard-1", "b/shard-0", "b/shard-1"}

    def test_memory_budget_carves_across_tenants(self):
        budget = MemoryBudget.absolute(1 << 20)
        pairs = [(key * 2, key * 2 + 1) for key in range(100)]
        specs = [TenantSpec(name, pairs=pairs) for name in ("a", "b")]
        with TenantDirectory(specs, budget=budget) as directory:
            carve = directory.arbiter.describe()["memory"]
            assert carve["absolute_bytes"] == 1 << 20
            allocations = directory.arbiter.rebalance()
            # Equal key counts -> (near-)equal carve across all 4 shards.
            shares = [b.absolute_bytes for b in allocations.values()]
            assert len(shares) == 4
            # Hash partitioning skews per-shard key counts slightly; the
            # carve tracks keys, so shares are near-equal, not exact.
            assert max(shares) < 1.5 * min(shares)
            assert sum(shares) <= 1 << 20

    def test_split_and_merge_keep_the_tenant_budget_bounded(self):
        pairs = [(key, key) for key in range(1000)]
        spec = TenantSpec(
            "t", family="adaptive", partitioning="range", num_shards=2, pairs=pairs
        )
        other = TenantSpec("u", family="adaptive", num_shards=1, pairs=pairs[:100])
        budget = MemoryBudget.absolute(4_000_000)
        with TenantDirectory([spec, other], budget=budget) as directory:
            router = directory.router_for("t")
            assert router.arbiter is directory.arbiter

            def check(members):
                assert set(directory.arbiter.rebalance()) == members
                managers = [
                    shard.replicas[0].index.manager
                    for tenant in ("t", "u")
                    for shard in directory.router_for(tenant).table.shards
                ]
                budgets = [manager.config.budget for manager in managers]
                assert all(budget.bounded for budget in budgets)
                assert sum(budget.absolute_bytes for budget in budgets) <= 4_000_000

            check({"t/shard-0", "t/shard-1", "u/shard-0"})
            router.split_shard(0)
            check({"t/shard-0", "t/shard-1", "t/shard-2", "u/shard-0"})
            router.merge_shards(1)
            check({"t/shard-0", "t/shard-1", "u/shard-0"})

    def test_quota_installed_from_spec(self):
        quota = TenantQuota(ops_per_sec=10.0, max_inflight=3)
        with demo_directory(["a"], keys_per_tenant=10, quota=quota) as directory:
            assert directory.arbiter.admit("a", now=0.0) == "ok"
            stats = directory.stats()
            assert stats["tenants"]["a"]["num_keys"] == 10

    def test_unknown_tenant_raises(self):
        with demo_directory(["a"], keys_per_tenant=10) as directory:
            with pytest.raises(KeyError):
                directory.router_for("ghost")
            assert "ghost" not in directory
            assert "a" in directory

    def test_stats_is_json_shaped(self):
        import json

        with demo_directory(["a"], keys_per_tenant=25) as directory:
            blob = json.dumps(directory.stats())
            assert "arbiter" in blob


class TestRecover:
    def test_reopened_directory_serves_what_the_killed_one_did(self, tmp_path):
        pairs = [(key * 2, key) for key in range(300)]
        specs = [
            TenantSpec("a", num_shards=2, partitioning="range", pairs=pairs),
            TenantSpec("b", family="adaptive", replication_factor=2, pairs=pairs),
            TenantSpec("c", family="dualstage"),
        ]

        def num_keys(directory):  # what STATS reports per tenant
            return {name: row["num_keys"] for name, row in directory.stats()["tenants"].items()}

        budget = MemoryBudget.absolute(4_000_000)
        directory = TenantDirectory(specs, budget, durability_root=tmp_path)
        directory.router_for("a").split_shard(1)
        directory.router_for("b").delete(0)
        directory.router_for("c").put(7, 7)
        before, members = num_keys(directory), set(directory.arbiter.rebalance())
        directory.close()  # the kill: nothing survives but the files

        with TenantDirectory.recover(specs, tmp_path, budget) as reopened:
            assert reopened.arbiter.budget is budget
            assert num_keys(reopened) == before == {"a": 300, "b": 299, "c": 1}
            assert set(reopened.arbiter.rebalance()) == members
            assert members == {"a/shard-0", "a/shard-1", "a/shard-2", "c/shard-0", "c/shard-1"}


class TestDemoDirectory:
    def test_even_keys_loaded_odd_keys_miss(self):
        with demo_directory(["a"], keys_per_tenant=100) as directory:
            router = directory.router_for("a")
            assert router.get(10) == 11
            assert router.get(11) is None
            assert len(router) == 100
