"""Guardrails for the top-level public API."""

import dataclasses
import importlib
import inspect

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_headline_classes_present(self):
        assert repro.AdaptiveBPlusTree is not None
        assert repro.HybridTrie is not None
        assert repro.AdaptationManager is not None
        assert repro.MemoryBudget is not None


class TestSubpackageExports:
    def test_every_subpackage_all_resolves(self):
        for module_name in (
            "repro.core",
            "repro.succinct",
            "repro.bptree",
            "repro.art",
            "repro.fst",
            "repro.hybridtrie",
            "repro.dualstage",
            "repro.workloads",
            "repro.sim",
            "repro.harness",
            "repro.obs",
            "repro.service",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (module_name, name)

    def test_quickstart_docstring_example_works(self):
        from repro import AdaptiveBPlusTree, ManagerConfig, MemoryBudget
        from repro.bptree.hybrid import BTREE_ENCODING_ORDER

        config = ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER, budget=MemoryBudget.absolute(2_000_000)
        )
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            [(key, key * 2) for key in range(2_000)], manager_config=config
        )
        assert tree.lookup(42) == 84
        assert tree.manager.events is not None


class TestSettableValues:
    def test_knobs_are_pinned(self):
        """The settable values of the manager and the serving surfaces,
        pinned: a new one shows up as an edit to this list."""
        import repro.net.__main__ as net_main
        from repro.core.bloom import BloomFilter
        from repro.core.budget import ResourceArbiter
        from repro.net import loadgen
        from repro.net.server import NetServer
        from repro.net.tenancy import TenantDirectory, demo_directory
        from repro.replication.profiles import ReplicaProfile
        from repro.service.router import ShardRouter

        def parameters(callable_):
            return [
                name for name in inspect.signature(callable_).parameters if name != "self"
            ]

        def flags(parser):
            return [action.dest for action in parser._actions if action.dest != "help"]

        assert [field.name for field in dataclasses.fields(repro.ManagerConfig)] == [
            "encoding_order",
            "budget",
            "heuristic",
            "epsilon",
            "delta",
            "initial_skip_length",
            "skip_min",
            "skip_max",
            "adaptive_skip",
            "use_bloom_filter",
            "initial_sample_size",
            "max_sample_size",
        ]
        assert parameters(ShardRouter.build) == [
            "pairs",
            "family",
            "num_shards",
            "partitioning",
            "durability",
            "replication_factor",
            "replica_profiles",
        ]
        assert parameters(ShardRouter.recover) == ["durability", "family"]
        assert [field.name for field in dataclasses.fields(ReplicaProfile)] == [
            "name",
            "description",
            "affinity",
            "cold_phases_to_compact",
            "cold_phases_to_forget",
            "phase_sample_size",
            "skip_length",
        ]
        assert parameters(NetServer) == [
            "directory",
            "host",
            "port",
            "max_batch",
            "admission",
        ]
        # The two wire CLIs: the server owns what builds and traces it,
        # the loadgen what shapes the load it sends and its own trace.
        assert flags(net_main._build_parser()) == [
            "host",
            "port",
            "tenants",
            "keys",
            "shards",
            "family",
            "durable",
            "trace",
            "trace_ops",
            "max_batch",
            "quota_ops",
            "max_inflight",
        ]
        assert flags(loadgen._build_parser()) == [
            "host",
            "port",
            "rate",
            "duration",
            "tenants",
            "keys",
            "tenant_alpha",
            "key_alpha",
            "get_fraction",
            "connections",
            "seed",
            "trace",
            "trace_sample",
            "json",
        ]
        assert parameters(TenantDirectory) == ["specs", "durability_root"]
        assert parameters(demo_directory) == [
            "tenants",
            "keys_per_tenant",
            "num_shards",
            "family",
            "quota",
            "durability_root",
        ]
        assert parameters(ResourceArbiter) == []
        assert parameters(BloomFilter) == ["capacity"]


class TestIndexContract:
    def test_contract_surface_is_pinned(self):
        """What every layer above an index may call on it: a new member
        shows up as an edit to this list."""
        from repro.obs.introspect import IndexFamily

        public = sorted(name for name in vars(IndexFamily) if not name.startswith("_"))
        assert public == [
            "delete",
            "describe",
            "encoding_census",
            "insert",
            "insert_many",
            "items",
            "key_type",
            "lookup",
            "lookup_many",
            "manager",
            "num_keys",
            "read_only",
            "scan",
            "size_bytes",
            "stats",
            "stats_family",
            "update",
            "verify",
        ]
        assert sorted(IndexFamily.__annotations__) == [
            "counters",
            "key_type",
            "manager",
            "read_only",
            "stats_family",
        ]

    def test_every_family_subclasses_the_contract(self):
        from repro import (
            ART,
            FST,
            AdaptiveBPlusTree,
            BPlusTree,
            DualStageIndex,
            HybridTrie,
            OlcBPlusTree,
        )
        from repro.obs.introspect import IndexFamily

        families = (
            ART, FST, AdaptiveBPlusTree, BPlusTree, DualStageIndex, HybridTrie, OlcBPlusTree
        )
        assert all(issubclass(family, IndexFamily) for family in families)
        assert sorted(family.__name__ for family in families if family.read_only) == [
            "FST",
            "HybridTrie",
        ]
