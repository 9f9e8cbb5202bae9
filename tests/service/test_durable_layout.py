"""The on-disk layout of a durable router, pinned byte for byte.

Stores written by earlier versions must keep recovering, so the
manifest payload and every WAL and snapshot file name are compared
against literals for a single-copy and a two-copy store, under hash and
range partitioning.  The range runs also split a shard, which re-keys
its logs under the next epoch.
"""

import json

import pytest

from repro.durability import DurabilityManager
from repro.service import ShardRouter

PAIRS = [(key, key * 10) for key in range(0, 80, 2)]

HASH = {"kind": "hash", "num_shards": 2}
RANGE = {"kind": "range", "boundaries": [{"t": "int", "v": "18"}, {"t": "int", "v": "40"}]}
REPLICAS = {"factor": 2, "profiles": ["point", "scan"]}

EXPECTED = {
    (1, "hash"): {
        "manifest": {
            "epoch": 0,
            "format": 1,
            "partitioner": HASH,
            "shards": ["e00000000-p0000", "e00000000-p0001"],
        },
        "wal": ["e00000000-p0000.wal", "e00000000-p0001.wal"],
        "snap": [
            "e00000000-p0000.00000000000000000000.snap",
            "e00000000-p0000.00000000000000000001.snap",
            "e00000000-p0001.00000000000000000000.snap",
            "e00000000-p0001.00000000000000000002.snap",
        ],
    },
    (1, "range"): {
        "manifest": {
            "epoch": 1,
            "format": 1,
            "partitioner": RANGE,
            "shards": ["e00000001-p0000", "e00000001-p0001", "e00000000-p0001"],
        },
        "wal": ["e00000000-p0001.wal", "e00000001-p0000.wal", "e00000001-p0001.wal"],
        "snap": [
            "e00000000-p0001.00000000000000000000.snap",
            "e00000000-p0001.00000000000000000001.snap",
            "e00000001-p0000.00000000000000000000.snap",
            "e00000001-p0001.00000000000000000000.snap",
        ],
    },
    (2, "hash"): {
        "manifest": {
            "epoch": 0,
            "format": 1,
            "partitioner": HASH,
            "replicas": {
                **REPLICAS,
                "logs": [
                    ["e00000000-p0000-r00", "e00000000-p0000-r01"],
                    ["e00000000-p0001-r00", "e00000000-p0001-r01"],
                ],
            },
            "shards": ["e00000000-p0000-r00", "e00000000-p0001-r00"],
        },
        "wal": [
            "e00000000-p0000-r00.wal",
            "e00000000-p0000-r01.wal",
            "e00000000-p0001-r00.wal",
            "e00000000-p0001-r01.wal",
        ],
        "snap": [
            "e00000000-p0000-r00.00000000000000000000.snap",
            "e00000000-p0000-r00.00000000000000000001.snap",
            "e00000000-p0000-r01.00000000000000000000.snap",
            "e00000000-p0000-r01.00000000000000000001.snap",
            "e00000000-p0001-r00.00000000000000000000.snap",
            "e00000000-p0001-r00.00000000000000000002.snap",
            "e00000000-p0001-r01.00000000000000000000.snap",
            "e00000000-p0001-r01.00000000000000000002.snap",
        ],
    },
    (2, "range"): {
        "manifest": {
            "epoch": 1,
            "format": 1,
            "partitioner": RANGE,
            "replicas": {
                **REPLICAS,
                "logs": [
                    ["e00000001-p0000-r00", "e00000001-p0000-r01"],
                    ["e00000001-p0001-r00", "e00000001-p0001-r01"],
                    ["e00000000-p0001-r00", "e00000000-p0001-r01"],
                ],
            },
            "shards": ["e00000001-p0000-r00", "e00000001-p0001-r00", "e00000000-p0001-r00"],
        },
        "wal": [
            "e00000000-p0001-r00.wal",
            "e00000000-p0001-r01.wal",
            "e00000001-p0000-r00.wal",
            "e00000001-p0000-r01.wal",
            "e00000001-p0001-r00.wal",
            "e00000001-p0001-r01.wal",
        ],
        "snap": [
            "e00000000-p0001-r00.00000000000000000000.snap",
            "e00000000-p0001-r00.00000000000000000001.snap",
            "e00000000-p0001-r01.00000000000000000000.snap",
            "e00000000-p0001-r01.00000000000000000001.snap",
            "e00000001-p0000-r00.00000000000000000000.snap",
            "e00000001-p0000-r01.00000000000000000000.snap",
            "e00000001-p0001-r00.00000000000000000000.snap",
            "e00000001-p0001-r01.00000000000000000000.snap",
        ],
    },
}


@pytest.mark.parametrize(("factor", "partitioning"), sorted(EXPECTED))
def test_manifest_and_log_names_are_pinned(tmp_path, factor, partitioning):
    family = "adaptive" if factor > 1 else "olc"
    router = ShardRouter.build(
        PAIRS,
        family=family,
        num_shards=2,
        partitioning=partitioning,
        durability=DurabilityManager(tmp_path, sync="none"),
        replication_factor=factor,
    )
    router.put_many([(1, 11), (3, 33), (79, 99)])
    router.checkpoint()
    router.delete(2)
    if partitioning == "range":
        router.split_shard(0)
    router.close()
    found = {
        "manifest": json.loads((tmp_path / "MANIFEST.json").read_text())["payload"],
        "wal": sorted(path.name for path in (tmp_path / "wal").iterdir()),
        "snap": sorted(path.name for path in (tmp_path / "snap").iterdir()),
    }
    assert found == EXPECTED[(factor, partitioning)]
    recovered = ShardRouter.recover(DurabilityManager(tmp_path, sync="none"), family=family)
    try:
        expected = {**dict(PAIRS), 1: 11, 3: 33, 79: 99}
        del expected[2]
        assert recovered.scan(-1, 10**6) == sorted(expected.items())
    finally:
        recovered.close()
