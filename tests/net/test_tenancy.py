"""Tenant directory: shard groups, admission arbiter wiring, restart."""

import pytest

from repro.core.budget import TenantQuota
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

        directory = TenantDirectory(specs, durability_root=tmp_path)
        directory.router_for("a").split_shard(1)
        directory.router_for("b").delete(0)
        directory.router_for("c").put(7, 7)
        before = num_keys(directory)
        directory.close()  # the kill: nothing survives but the files

        with TenantDirectory.recover(specs, tmp_path) as reopened:
            assert reopened.arbiter.tenants() == ["a", "b", "c"]
            assert num_keys(reopened) == before == {"a": 300, "b": 299, "c": 1}


class TestDemoDirectory:
    def test_even_keys_loaded_odd_keys_miss(self):
        with demo_directory(["a"], keys_per_tenant=100) as directory:
            router = directory.router_for("a")
            assert router.get(10) == 11
            assert router.get(11) is None
            assert len(router) == 100
