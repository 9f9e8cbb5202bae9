"""Divergence profiles: registry, resolution, and manager wiring."""

import pytest

from repro.replication import REPLICA_PROFILES, resolve_profiles


class TestRegistry:
    def test_registry_names_match_keys(self):
        for name, profile in REPLICA_PROFILES.items():
            assert profile.name == name

    def test_specialists_and_baseline_exist(self):
        assert set(REPLICA_PROFILES) == {"point", "scan", "balanced"}

    def test_affinities(self):
        assert REPLICA_PROFILES["point"].affinity == "point"
        assert REPLICA_PROFILES["scan"].affinity == "scan"
        assert REPLICA_PROFILES["balanced"].affinity is None

    def test_every_profile_gets_one_budget(self):
        # The identical-replica baseline must not be handicapped: the
        # bench's comparison is divergence, not budget.
        budgets = {
            profile.manager_config().budget.bits_per_key
            for profile in REPLICA_PROFILES.values()
        }
        assert budgets == {80.0}

    def test_manager_config_carries_budget(self):
        config = REPLICA_PROFILES["point"].manager_config()
        assert config.budget.bits_per_key is not None
        assert config.heuristic is not None


class TestResolve:
    def test_factor_one_is_balanced(self):
        (profile,) = resolve_profiles(1)
        assert profile.name == "balanced"

    def test_default_lineup_for_factor_three(self):
        names = [profile.name for profile in resolve_profiles(3)]
        assert names == ["point", "scan", "balanced"]

    def test_larger_factors_fill_with_balanced(self):
        names = [profile.name for profile in resolve_profiles(5)]
        assert names == ["point", "scan", "balanced", "balanced", "balanced"]

    def test_explicit_names(self):
        names = [p.name for p in resolve_profiles(2, ["scan", "scan"])]
        assert names == ["scan", "scan"]

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            resolve_profiles(0)

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="profiles"):
            resolve_profiles(3, ["point"])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            resolve_profiles(1, ["mystery"])


class TestBuildIndex:
    def test_builds_working_adaptive_tree(self):
        pairs = [(key, key * 7) for key in range(0, 600, 2)]
        tree = REPLICA_PROFILES["scan"].build_index(pairs)
        assert tree.lookup(100) == 700
        assert tree.lookup(101) is None
        assert len(tree.scan(0, 5)) == 5
