"""Differential tests: every index agrees with every other index.

The same key/value set is loaded into all seven structures; lookups,
misses, ordered iteration, and range scans must agree everywhere —
including after the adaptive structures have migrated encodings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.tree import ART, terminated
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.dualstage.index import DualStageIndex
from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie


def int_dataset(n=2000, seed=0):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(2**44), n))
    return [(key, key ^ 0xBEEF) for key in keys]


class TestIntKeyIndexesAgree:
    @pytest.fixture(scope="class")
    def dataset(self):
        return int_dataset()

    @pytest.fixture(scope="class")
    def indexes(self, dataset):
        return {
            "gapped": BPlusTree.bulk_load(dataset, LeafEncoding.GAPPED),
            "packed": BPlusTree.bulk_load(dataset, LeafEncoding.PACKED),
            "succinct": BPlusTree.bulk_load(dataset, LeafEncoding.SUCCINCT),
            "adaptive": AdaptiveBPlusTree.bulk_load_adaptive(dataset),
            "dualstage": DualStageIndex.bulk_load(dataset, LeafEncoding.SUCCINCT),
        }

    def test_lookups_agree(self, dataset, indexes):
        rng = random.Random(1)
        probes = [key for key, _ in rng.sample(dataset, 300)]
        probes += [rng.randrange(2**44) for _ in range(300)]
        reference = dict(dataset)
        for key in probes:
            expected = reference.get(key)
            for name, index in indexes.items():
                assert index.lookup(key) == expected, (name, key)

    def test_scans_agree(self, dataset, indexes):
        rng = random.Random(2)
        reference = sorted(dataset)
        for _ in range(50):
            start = rng.randrange(2**44)
            count = rng.randrange(1, 40)
            import bisect

            position = bisect.bisect_left([key for key, _ in reference], start)
            expected = reference[position : position + count]
            for name, index in indexes.items():
                assert index.scan(start, count) == expected, (name, start)


class TestByteKeyIndexesAgree:
    @pytest.fixture(scope="class")
    def byte_dataset(self):
        data = int_dataset(1500, seed=3)
        return [(key.to_bytes(8, "big"), value) for key, value in data]

    @pytest.fixture(scope="class")
    def tries(self, byte_dataset):
        hybrid = HybridTrie(byte_dataset, art_levels=2, adaptive=False)
        # Pre-expand a handful of branches so the hybrid is genuinely mixed.
        for key, _ in byte_dataset[::100]:
            branch = hybrid._branch_on_path(key)
            if branch is not None:
                hybrid.expand_branch(branch)
        return {
            "art": ART.from_sorted(byte_dataset),
            "fst": FST(byte_dataset),
            "fst-sparse": FST(byte_dataset, dense_levels=0),
            "fst-dense": FST(byte_dataset, dense_levels=64),
            "hybrid": hybrid,
        }

    def test_lookups_agree(self, byte_dataset, tries):
        rng = random.Random(4)
        reference = dict(byte_dataset)
        probes = [key for key, _ in rng.sample(byte_dataset, 300)]
        probes += [rng.randrange(2**44).to_bytes(8, "big") for _ in range(300)]
        for key in probes:
            expected = reference.get(key)
            for name, trie in tries.items():
                assert trie.lookup(key) == expected, (name, key)

    def test_iteration_agrees(self, byte_dataset, tries):
        expected = sorted(byte_dataset)
        assert list(tries["art"].items()) == expected
        assert list(tries["fst"].items()) == expected
        assert tries["hybrid"].items() == expected

    def test_scans_agree(self, byte_dataset, tries):
        rng = random.Random(5)
        reference = sorted(byte_dataset)
        keys_only = [key for key, _ in reference]
        import bisect

        for _ in range(30):
            start = rng.randrange(2**44).to_bytes(8, "big")
            count = rng.randrange(1, 25)
            position = bisect.bisect_left(keys_only, start)
            expected = reference[position : position + count]
            assert tries["art"].scan(start, count) == expected
            assert tries["fst"].scan(start, count) == expected
            assert tries["hybrid"].scan(start, count) == expected


@settings(max_examples=15, deadline=None)
@given(
    # The 0x00 terminator convention requires null-free raw keys.
    st.lists(
        st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=6).map(bytes),
        unique=True,
        min_size=1,
        max_size=60,
    )
)
def test_art_fst_hybrid_property(raw_keys):
    keys = sorted({terminated(key) for key in raw_keys})
    pairs = [(key, index) for index, key in enumerate(keys)]
    art = ART.from_sorted(pairs)
    fst = FST(pairs)
    hybrid = HybridTrie(pairs, art_levels=1, adaptive=False)
    for key, value in pairs:
        assert art.lookup(key) == fst.lookup(key) == hybrid.lookup(key) == value
    assert list(art.items()) == list(fst.items()) == hybrid.items()
