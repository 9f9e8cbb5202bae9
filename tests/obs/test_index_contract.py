"""The index contract: every family answers the same calls, and its
``stats()`` / ``describe()`` / wire STATS output is pinned.

``index_contract_golden.json`` holds the ``stats()``/``describe()`` of
every ``BUILDS`` entry and the ``_wire_stats`` of every ``WIRE`` entry,
as produced before the contract existed (each family then carried its
own stats, describe and census code).  The one deliberate difference is
the Dual-Stage key count after deletes, which used to count deleted
static-stage keys.
"""

import copy
import itertools
import json
from pathlib import Path

import pytest

import repro.hybridtrie.tagged as tagged
from repro.art.tree import ART
from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.olc import OlcBPlusTree
from repro.bptree.tree import BPlusTree
from repro.core.manager import ManagerConfig
from repro.dualstage.index import DualStageIndex
from repro.fst.trie import FST
from repro.hybridtrie.tree import TRIE_ENCODING_ORDER, HybridTrie
from repro.net.server import NetServer
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.obs.introspect import IndexFamily
from repro.service.router import FAMILY_FACTORIES

GOLDEN = Path(__file__).with_name("index_contract_golden.json")

INT_PAIRS = [(key * 3, key) for key in range(600)]
BYTE_PAIRS = sorted((b"%05d\x00" % (key * 7919 % 100000), key) for key in range(400))


def _fast(order):
    return ManagerConfig(
        encoding_order=order,
        initial_skip_length=0,
        skip_min=0,
        skip_max=10,
        initial_sample_size=200,
        max_sample_size=200,
    )


def _exercise_ints(index, deletes=True):
    for key in list(range(0, 300, 3)) * 6 + list(range(0, 1800, 5)):
        index.lookup(key)
    index.scan(30, 40)
    for key in range(1, 400, 7):
        index.insert(key, key + 1)
    if deletes:
        for key in (3, 6, 9, 1, 8):
            index.delete(key)
    return index


def _exercise_bytes(index, deletes=False):
    for key, _ in BYTE_PAIRS[:60] * 8 + BYTE_PAIRS:
        index.lookup(key)
    index.scan(b"k001", 20)
    if deletes:
        for key, _ in BYTE_PAIRS[:5]:
            index.delete(key)
    return index


#: Small fixed builds, each exercised through lookups, a scan and (on
#: writable families) inserts and deletes; the adaptive ones migrate.
BUILDS = {
    "bptree": lambda: _exercise_ints(BPlusTree.bulk_load(INT_PAIRS)),
    "olc": lambda: _exercise_ints(OlcBPlusTree.bulk_load(INT_PAIRS)),
    "adaptive": lambda: _exercise_ints(
        AdaptiveBPlusTree.bulk_load_adaptive(
            INT_PAIRS, leaf_capacity=16, manager_config=_fast(BTREE_ENCODING_ORDER)
        )
    ),
    "dualstage": lambda: _exercise_ints(DualStageIndex.bulk_load(INT_PAIRS), deletes=False),
    "dualstage_deleted": lambda: _exercise_ints(DualStageIndex.bulk_load(INT_PAIRS)),
    "hybridtrie": lambda: _exercise_bytes(
        HybridTrie(BYTE_PAIRS, manager_config=_fast(TRIE_ENCODING_ORDER))
    ),
    "art": lambda: _exercise_bytes(ART.from_sorted(BYTE_PAIRS), deletes=True),
    "fst": lambda: _exercise_bytes(FST(BYTE_PAIRS)),
}

WIRE = {
    "olcx1": ("olc", 1),
    "adaptivex1": ("adaptive", 1),
    "dualstagex1": ("dualstage", 1),
    "adaptivex2": ("adaptive", 2),
}


def _build(name):
    # Branch ids feed the manager's Bloom filter; start them where a
    # fresh process does, so the sampled counts repeat.
    tagged._branch_ids = itertools.count(1)
    return BUILDS[name]()


def _wire_stats(family, factor):
    """The STATS payload sections an index feeds, after a few batches."""
    pairs = [(key * 2, key * 2 + 1) for key in range(300)]
    directory = TenantDirectory(
        [
            TenantSpec(name, family=family, pairs=pairs, replication_factor=factor)
            for name in ("a", "b")
        ]
    )
    try:
        router = directory.router_for("a")
        router.get_many(list(range(0, 600, 3)))
        router.put_many([(key, key) for key in range(1, 200, 4)])
        router.delete(2)
        router.scan(10, 30)
        payload = json.loads(NetServer(directory)._stats_payload())
    finally:
        directory.close()
    return {section: payload[section] for section in ("arbiter", "shards", "tenants")}


def _expected():
    """The golden output with the Dual-Stage count fixed: five deleted
    keys (all in the static stage) leave 633, and the router's one
    delete (key 2, static) leaves tenant ``a`` and its shard 0 one lower."""
    golden = json.loads(GOLDEN.read_text())
    expected = copy.deepcopy(golden)
    deleted = expected["families"]["dualstage_deleted"]
    deleted["stats"]["num_keys"] -= 5
    deleted["describe"] = deleted["describe"].replace("638 keys", "633 keys", 1)
    wire = expected["wire"]["dualstagex1"]
    wire["tenants"]["a"]["num_keys"] -= 1
    wire["shards"]["a"][0]["num_keys"] -= 1
    wire["shards"]["a"][0]["replicas"][0]["num_keys"] -= 1
    return golden, expected


@pytest.fixture(scope="module")
def expected():
    return _expected()[1]


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_stats_and_describe_match_the_pinned_output(name, expected):
    index = _build(name)
    assert index.stats() == expected["families"][name]["stats"]
    assert index.describe() == expected["families"][name]["describe"]


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_stats_match_the_pinned_output(name, expected):
    assert _wire_stats(*WIRE[name]) == expected["wire"][name]


def test_only_the_dual_stage_count_moved():
    golden, expected = _expected()
    assert golden["families"]["dualstage_deleted"]["stats"]["num_keys"] == 638
    assert expected["families"]["dualstage_deleted"]["stats"]["num_keys"] == len(
        list(_build("dualstage_deleted").items())
    )


def _contract_builds():
    byte_pairs = BYTE_PAIRS[:120]
    int_pairs = INT_PAIRS[:300]
    for family, factory in sorted(FAMILY_FACTORIES.items()):
        pairs = byte_pairs if family == "hybridtrie" else int_pairs
        yield pytest.param(lambda f=factory, p=pairs: f(p), id=family)
    yield pytest.param(lambda: ART.from_sorted(byte_pairs), id="art")
    yield pytest.param(lambda: FST(byte_pairs), id="fst")


@pytest.mark.parametrize("build", list(_contract_builds()))
def test_every_family_answers_the_contract(build):
    index = build()
    assert isinstance(index, IndexFamily)
    pairs = list(index.items())
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys) and all(isinstance(key, index.key_type) for key in keys)
    assert index.num_keys == len(index) == len(pairs)
    assert index.lookup_many(keys[:50]) == [index.lookup(key) for key in keys[:50]]
    assert index.scan(keys[10], 5) == pairs[10:15]
    assert index.size_bytes() > 0 and index.encoding_census()
    assert (index.manager is None) == (index.stats()["adaptation"] is None)
    index.verify()
    if index.read_only:
        with pytest.raises(TypeError):
            index.insert(keys[0], 1)
        with pytest.raises(TypeError):
            index.delete(keys[0])
        return
    absent = b"\xff\x00" if index.key_type is bytes else keys[-1] + 1
    assert not index.update(absent, 7)
    index.insert_many([(absent, 7)])
    assert index.lookup(absent) == 7 and index.num_keys == len(pairs) + 1
    assert index.update(absent, 8) and index.lookup(absent) == 8
    assert index.delete(absent) and index.num_keys == len(pairs)
    assert list(index.items()) == pairs
    index.verify()
