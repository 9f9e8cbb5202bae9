"""Every shard copy keeps the memory budget its index builder set.

The family factory builds a plain ``adaptive`` copy under an unbounded
budget; a replica profile builds its copy under the profile's relative
one.  Nothing in the service rewrites a live manager's config, so that
budget must survive everything that rebuilds or re-homes a copy: build,
split, merge, recovery from disk and revive.
"""

import pytest

from repro.core.budget import MemoryBudget
from repro.durability.manager import DurabilityManager
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.service.router import ShardRouter
from repro.service.shard import Replica, Shard

PAIRS = [(key * 2, key) for key in range(600)]

#: (replica_profiles, the budget every copy's builder sets)
SHAPES = {
    "plain": (None, MemoryBudget.unbounded()),
    "point-scan": (["point", "scan"], MemoryBudget.relative(80)),
}


def budgets(router):
    return {
        copy.index.manager.config.budget
        for shard in router.table.shards
        for copy in shard.replicas
    }


def revive_every_copy(shard):
    """Down and revive each copy in turn (a sole copy gets a plain sibling
    from its own builder, since a shard's last live copy cannot revive)."""
    if len(shard.replicas) == 1:
        only = shard.replicas[0]
        shard = Shard(
            shard.shard_id,
            [Replica(copy, only.build, only.items(), False) for copy in (0, 1)],
        )
    for copy in shard.replicas:
        shard.mark_down(copy, "test")
        shard.revive(copy.replica_id)
    return {copy.index.manager.config.budget for copy in shard.replicas}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_budget_survives_the_shard_lifecycle(shape, tmp_path):
    profiles, expected = SHAPES[shape]
    root = tmp_path / "store"
    router = ShardRouter.build(
        PAIRS,
        family="adaptive",
        num_shards=2,
        partitioning="range",
        durability=DurabilityManager(root),
        replica_profiles=profiles,
    )
    try:
        assert budgets(router) == {expected}
        router.put_many([(key, key) for key in range(1, 200, 2)])
        router.get_many(list(range(0, 400, 3)))
        router.split_shard(0)
        assert router.num_shards == 3 and budgets(router) == {expected}
        router.merge_shards(1)
        assert router.num_shards == 2 and budgets(router) == {expected}
    finally:
        router.close()
    with ShardRouter.recover(DurabilityManager(root), family="adaptive") as recovered:
        assert len(recovered) == len(PAIRS) + 100
        assert budgets(recovered) == {expected}
        for shard in recovered.table.shards:
            assert revive_every_copy(shard) == {expected}
        assert budgets(recovered) == {expected}


def test_budgets_survive_a_tenant_directory_restart(tmp_path):
    specs = [
        TenantSpec(
            name, family="adaptive", partitioning="range", pairs=PAIRS, replica_profiles=profiles
        )
        for name, (profiles, _) in SHAPES.items()
    ]

    def check(directory):
        for name, (_, expected) in SHAPES.items():
            assert budgets(directory.router_for(name)) == {expected}, name

    directory = TenantDirectory(specs, durability_root=tmp_path)
    try:
        check(directory)
        for name in SHAPES:
            directory.router_for(name).split_shard(0)
        check(directory)
        for name in SHAPES:
            directory.router_for(name).merge_shards(0)
        check(directory)
    finally:
        directory.close()
    with TenantDirectory.recover(specs, tmp_path) as reopened:
        check(reopened)
