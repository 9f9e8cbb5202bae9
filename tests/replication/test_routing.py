"""Replica router: scoring, affinity, exploration, and round-robin."""

import pytest

from repro.replication import ReplicaRouter, ReplicaSetUnavailableError
from repro.replication.routing import EXPLORE_EVERY, MEASURE_EVERY
from repro.service.router import ShardTemplate
from repro.service.shard import Shard


def make_shard(profiles=("point", "scan", "balanced"), num_keys=400, router=None):
    pairs = [(key, key + 1) for key in range(0, num_keys * 2, 2)]
    template = ShardTemplate.resolve("adaptive", factor=len(profiles), profiles=profiles)
    shard = template.make(0, pairs, None)
    return Shard(0, shard.replicas, router or shard.router)


class TestConstruction:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ReplicaRouter(policy="random")


class TestScoring:
    def test_census_prior_prefers_expanded_replicas(self):
        shard = make_shard(profiles=("balanced", "balanced"))
        router = shard.router
        fast, slow = shard.replicas
        # Identical all-Succinct copies price identically...
        succinct_prior = router.score(slow, "point")
        assert router.score(fast, "point") == succinct_prior
        # ...and a measured cheap (Gapped-priced) batch undercuts it.
        router.observe(fast, "point", {"leaf_visit:gapped": 4, "inner_visit": 8}, 4)
        assert router.score(fast, "point") < succinct_prior

    def test_affinity_discount_applies_to_measured_cost(self):
        shard = make_shard()
        router = shard.router
        point_replica, scan_replica, _ = shard.replicas
        events = {"leaf_visit:succinct": 4, "inner_visit": 8}
        router.observe(point_replica, "point", events, 4)
        router.observe(scan_replica, "point", events, 4)
        # Same measured cost; the point-affine replica must score lower
        # for the point class (the divergence feedback loop's seed).
        assert router.score(point_replica, "point") < router.score(
            scan_replica, "point"
        )

    def test_observe_prices_only_read_service_events(self):
        shard = make_shard()
        router = shard.router
        replica = shard.replicas[0]
        router.observe(replica, "point", {"leaf_visit:succinct": 4}, 4)
        baseline = replica.cost_ewma["point"]
        # Migration work riding along in the delta must not change the
        # read-cost estimate.
        router.observe(
            replica,
            "point",
            {"leaf_visit:succinct": 4, "migration": 50, "leaf_reencode": 50},
            4,
        )
        assert replica.cost_ewma["point"] == pytest.approx(baseline)

    def test_lag_penalty_raises_score(self):
        shard = make_shard()
        router = shard.router
        replica = shard.replicas[0]
        before = router.score(replica, "point")
        replica.behind = 100
        assert router.score(replica, "point") > before


class TestPicking:
    def test_all_down_raises(self):
        shard = make_shard()
        for replica in shard.replicas:
            shard.mark_down(replica, "test")
        with pytest.raises(ReplicaSetUnavailableError):
            shard.router.pick(shard, "point")

    def test_down_replicas_never_picked(self):
        shard = make_shard()
        shard.mark_down(shard.replicas[0], "test")
        for _ in range(64):
            assert shard.router.pick(shard, "point") is not shard.replicas[0]

    def test_round_robin_rotates(self):
        shard = make_shard(router=ReplicaRouter(policy="round_robin"))
        seen = {shard.router.pick(shard, "point").replica_id for _ in range(6)}
        assert seen == {0, 1, 2}

    def test_cost_policy_steers_class_to_affine_replica(self):
        shard = make_shard()
        picks = [shard.router.pick(shard, "scan").profile.name for _ in range(EXPLORE_EVERY - 1)]
        assert set(picks) == {"scan"}

    def test_exploration_rotation_touches_other_replicas(self):
        shard = make_shard()
        picked = [shard.router.pick(shard, "point").replica_id for _ in range(2 * EXPLORE_EVERY)]
        # Every EXPLORE_EVERY-th pick rotates off the cheapest replica.
        explored = {index + 1 for index, replica in enumerate(picked) if replica != picked[0]}
        assert explored == {EXPLORE_EVERY, 2 * EXPLORE_EVERY}

    def test_should_measure_is_skip_sampled(self):
        shard = make_shard()
        replica = shard.replicas[0]
        decisions = []
        for batch in range(2 * MEASURE_EVERY):
            replica.routed_batches["point"] = batch + 1
            decisions.append(shard.router.should_measure(replica, "point"))
        measured = [batch + 1 for batch, measure in enumerate(decisions) if measure]
        assert measured == [1, MEASURE_EVERY + 1]


class TestDescribe:
    def test_describe_lists_every_replica(self):
        shard = make_shard()
        rows = shard.router.describe(shard)
        assert [row["profile"] for row in rows] == ["point", "scan", "balanced"]
        for row in rows:
            assert set(row["scores_ns"]) == {"point", "scan"}
