"""Read routing across a shard's copies: one rule, one table.

A read of class ``kind`` goes to the live, non-excluded copies whose
profile's affinity is ``kind`` (every such copy when none has it), each
pick taking the pool's next copy in turn on a per-class counter.
"""

import pytest

from repro.replication import ReplicaSetUnavailableError
from repro.service.router import ShardTemplate

PAIRS = [(key, key + 1) for key in range(0, 200, 2)]
SPECIALISTS = ("point", "scan", "balanced")
BALANCED = ("balanced",) * 3
TWO_POINT = ("point", "point", "scan")


def make_shard(profiles):
    """One shard over ``PAIRS``: plain when ``profiles`` is None."""
    if profiles is None:
        return ShardTemplate.resolve("adaptive").make(0, PAIRS, None)
    template = ShardTemplate.resolve("adaptive", len(profiles), list(profiles))
    return template.make(0, PAIRS, None)


#: Row id -> profiles, down copies, excluded copies, kind, and the copies
#: six picks return.
ROWS = {
    "point-specialist-takes-points": (SPECIALISTS, (), (), "point", [0] * 6),
    "scan-specialist-takes-scans": (SPECIALISTS, (), (), "scan", [1] * 6),
    "point-copy-down-rest-rotate": (SPECIALISTS, (0,), (), "point", [2, 1, 2, 1, 2, 1]),
    "point-copy-excluded-rest-rotate": (SPECIALISTS, (), (0,), "point", [2, 1, 2, 1, 2, 1]),
    "scan-copy-down-rest-rotate": (SPECIALISTS, (1,), (), "scan", [2, 0, 2, 0, 2, 0]),
    "two-point-copies-share-points": (TWO_POINT, (), (), "point", [1, 0, 1, 0, 1, 0]),
    "one-of-two-point-copies-down": (TWO_POINT, (1,), (), "point", [0] * 6),
    # Identical copies rotate from copy 1: BENCH_PR9's identical leg (its
    # per-copy reads and migrations) depends on this order.
    "balanced-x3-points": (BALANCED, (), (), "point", [1, 2, 0, 1, 2, 0]),
    "balanced-x3-scans": (BALANCED, (), (), "scan", [1, 2, 0, 1, 2, 0]),
    "balanced-x3-one-down": (BALANCED, (1,), (), "point", [2, 0, 2, 0, 2, 0]),
    "one-plain-copy": (None, (), (), "point", [0] * 6),
}


class TestPicking:
    @pytest.mark.parametrize(
        "profiles, down, exclude, kind, expected", ROWS.values(), ids=list(ROWS)
    )
    def test_pick_sequence(self, profiles, down, exclude, kind, expected):
        shard = make_shard(profiles)
        for copy in down:
            shard.mark_down(shard.replicas[copy], "test")
        excluded = [shard.replicas[copy] for copy in exclude]
        assert [shard.pick(kind, excluded).replica_id for _ in expected] == expected

    def test_round_robin_rotates(self):
        """Each read class keeps its own turn."""
        shard = make_shard(BALANCED)
        picked = [shard.pick(kind).replica_id for kind in ("point", "scan", "point", "scan")]
        assert picked == [1, 1, 2, 2]

    def test_down_replicas_never_picked(self):
        shard = make_shard(SPECIALISTS)
        shard.mark_down(shard.replicas[0], "test")
        shard.mark_down(shard.replicas[1], "test")
        for _ in range(8):
            assert shard.get_many([10, 12]) == [11, 13]
            assert shard.scan(0, 2) == PAIRS[:2]
        assert [copy.reads_routed for copy in shard.replicas] == [0, 0, 24]

    def test_all_down_raises(self):
        shard = make_shard(SPECIALISTS)
        for copy in shard.replicas:
            shard.mark_down(copy, "test")
        for kind in ("point", "scan"):
            with pytest.raises(ReplicaSetUnavailableError):
                shard.pick(kind)
        with pytest.raises(ReplicaSetUnavailableError):
            shard.get_many([10])
        with pytest.raises(ReplicaSetUnavailableError):
            shard.scan(0, 2)

    def test_every_live_copy_excluded_raises(self):
        shard = make_shard(SPECIALISTS)
        shard.mark_down(shard.replicas[2], "test")
        with pytest.raises(ReplicaSetUnavailableError):
            shard.pick("point", shard.replicas[:2])
