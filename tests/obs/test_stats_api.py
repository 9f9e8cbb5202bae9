"""Every index family honors the uniform stats()/describe() contract."""

import json

import pytest

from repro.art.tree import ART, terminated
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.dualstage.index import DualStageIndex
from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie

INT_PAIRS = [(key, key * 2) for key in range(0, 600, 2)]
BYTE_PAIRS = [
    (terminated(word), index)
    for index, word in enumerate(
        sorted({f"user{index:04d}".encode() for index in range(300)})
    )
]


def build_families():
    return {
        "bptree": BPlusTree.bulk_load(INT_PAIRS, LeafEncoding.GAPPED),
        "bptree_adaptive": AdaptiveBPlusTree.bulk_load_adaptive(INT_PAIRS),
        "dualstage": DualStageIndex.bulk_load(INT_PAIRS, LeafEncoding.SUCCINCT),
        "art": ART.from_sorted(BYTE_PAIRS),
        "fst": FST(BYTE_PAIRS),
        "hybridtrie": HybridTrie(BYTE_PAIRS),
    }


SHARED_KEYS = ("family", "num_keys", "size_bytes", "encoding_census", "counters", "adaptation")


class TestStatsContract:
    @pytest.mark.parametrize("family", sorted(build_families()))
    def test_uniform_shape(self, family):
        index = build_families()[family]
        index.lookup(INT_PAIRS[0][0] if family in ("bptree", "bptree_adaptive", "dualstage") else BYTE_PAIRS[0][0])
        stats = index.stats()
        assert stats["family"] == family == index.stats_family
        for key in SHARED_KEYS:
            assert key in stats, key
        assert list(stats)[: len(SHARED_KEYS)] == list(SHARED_KEYS)
        assert stats["num_keys"] > 0
        assert stats["size_bytes"] > 0
        assert stats["encoding_census"]
        assert stats["counters"]  # the lookup above counted something
        json.dumps(stats)  # JSON-safe exactly as returned

    @pytest.mark.parametrize("family", sorted(build_families()))
    def test_describe_leads_with_family(self, family):
        text = build_families()[family].describe()
        assert text.startswith(f"{family}:")
        assert "keys" in text.splitlines()[0]

    def test_adaptive_families_expose_adaptation_block(self):
        families = build_families()
        for name in ("bptree_adaptive", "hybridtrie"):
            assert families[name].stats()["adaptation"] is not None
        for name in ("bptree", "art", "fst", "dualstage"):
            assert families[name].stats()["adaptation"] is None

    def test_dualstage_extras(self):
        index = build_families()["dualstage"]
        index.insert(10_001, 1)
        stats = index.stats()
        assert "merges" in stats and "tombstones" in stats
        assert stats["dynamic_size"] >= 1
