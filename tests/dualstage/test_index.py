"""Tests for the Dual-Stage hybrid index baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bptree.leaves import LeafEncoding
from repro.dualstage.index import DualStageIndex
from repro.faults import FaultInjector, InjectedFault

STATIC_ENCODINGS = [LeafEncoding.PACKED, LeafEncoding.SUCCINCT]


def sorted_pairs(n, seed=0):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10**9), n))
    return [(key, key * 2) for key in keys]


@pytest.fixture(params=STATIC_ENCODINGS, ids=lambda e: e.value)
def encoding(request):
    return request.param


def static_stage(pairs, encoding):
    """The static stage a bulk load builds over ``pairs``."""
    return DualStageIndex.bulk_load(pairs, encoding)._static


class TestStaticStage:
    def test_lookup(self, encoding):
        pairs = sorted_pairs(1000)
        stage = static_stage(pairs, encoding)
        for key, value in pairs[::37]:
            assert stage.lookup(key) == value
        assert stage.lookup(-1) is None
        assert stage.lookup(pairs[-1][0] + 1) is None

    def test_empty(self, encoding):
        index = DualStageIndex(encoding)
        assert index._static.lookup(5) is None
        assert index._static.num_entries() == 0
        assert index.scan(0, 10) == []

    def test_items_sorted(self, encoding):
        pairs = sorted_pairs(600)
        assert static_stage(pairs, encoding).to_pairs() == pairs

    def test_items_from(self, encoding):
        pairs = sorted_pairs(600)
        stage = static_stage(pairs, encoding)
        assert stage.pairs_from(pairs[300][0], 5) == pairs[300:305]
        assert stage.pairs_from(pairs[300][0] - 1, 5) == pairs[300:305]

    def test_unsorted_rejected(self, encoding):
        with pytest.raises(ValueError):
            DualStageIndex.bulk_load([(2, 0), (1, 0)], encoding)

    def test_gapped_static_stage_rejected(self):
        with pytest.raises(ValueError, match="packed or succinct"):
            DualStageIndex(LeafEncoding.GAPPED)

    def test_succinct_smaller_than_packed(self):
        pairs = [(10**6 + index, index) for index in range(2000)]
        succinct = DualStageIndex.bulk_load(pairs, LeafEncoding.SUCCINCT)
        packed = DualStageIndex.bulk_load(pairs, LeafEncoding.PACKED)
        assert succinct._static_bytes() < packed._static_bytes() / 2


#: ``size_bytes()`` and ``encoding_census()`` of one fixed build, before
#: and after a merge, as literals: the paper's Figure 17 compares these
#: modeled bytes, so a layout change must leave every one of them put.
PINNED_BYTES = {
    LeafEncoding.PACKED: (
        (21392, {"dynamic:gapped": (1, 4096.0), "static:packed": (1, 16016.0)}),
        (22192, {"dynamic:gapped": (1, 4096.0), "static:packed": (1, 16816.0)}),
    ),
    LeafEncoding.SUCCINCT: (
        (12677, {"dynamic:gapped": (1, 4096.0), "static:succinct": (1, 7301.0)}),
        (12906, {"dynamic:gapped": (1, 4096.0), "static:succinct": (1, 7530.0)}),
    ),
}


def test_size_bytes_and_census_are_pinned(encoding):
    pairs = sorted_pairs(1000, seed=3)
    index = DualStageIndex.bulk_load(pairs, encoding)
    for step in range(30):
        index.insert(2 * step + 1, step)
    for key, _ in pairs[::50]:
        index.delete(key)
    before, after = PINNED_BYTES[encoding]
    assert index.merges == 0
    assert (index.size_bytes(), index.encoding_census()) == before
    index.insert_many([(10**9 + step, step) for step in range(40)])
    assert index.merges == 1
    assert (index.size_bytes(), index.encoding_census()) == after


class TestDualStageOperations:
    def test_bulk_load_and_lookup(self, encoding):
        pairs = sorted_pairs(1000)
        index = DualStageIndex.bulk_load(pairs, encoding)
        for key, value in pairs[::29]:
            assert index.lookup(key) == value
        assert index.lookup(-7) is None

    def test_insert_lands_in_dynamic_stage(self, encoding):
        index = DualStageIndex.bulk_load(sorted_pairs(1000), encoding, merge_ratio=0.5)
        index.insert(7, 70)
        assert index.lookup(7) == 70
        assert index.dynamic_size == 1

    def test_insert_shadows_static_version(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.5)
        key = pairs[10][0]
        index.insert(key, 999)
        assert index.lookup(key) == 999

    def test_update(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.5)
        assert index.update(pairs[5][0], 123)
        assert index.lookup(pairs[5][0]) == 123
        assert not index.update(-1, 0)

    def test_delete_via_tombstone(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.5)
        key = pairs[20][0]
        assert index.delete(key)
        assert index.lookup(key) is None
        assert not index.delete(key)

    def test_scan_merges_stages(self, encoding):
        pairs = [(key * 10, key) for key in range(100)]
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.9)
        index.insert(55, 555)  # between static keys 50 and 60
        result = index.scan(40, 4)
        assert result == [(40, 4), (50, 5), (55, 555), (60, 6)]

    def test_scan_respects_tombstones(self, encoding):
        pairs = [(key, key) for key in range(20)]
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.9)
        index.delete(5)
        result = index.scan(4, 3)
        assert result == [(4, 4), (6, 6), (7, 7)]

    def test_scan_shadowed_key_not_duplicated(self, encoding):
        pairs = [(key, key) for key in range(20)]
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.9)
        index.insert(10, 100)
        result = index.scan(9, 3)
        assert result == [(9, 9), (10, 100), (11, 11)]


class TestMerge:
    def test_merge_triggered_by_ratio(self, encoding):
        index = DualStageIndex.bulk_load(sorted_pairs(100), encoding, merge_ratio=0.05)
        for step in range(10):
            index.insert(10**9 + step, step)
        assert index.merges >= 1
        assert index.dynamic_size < 10
        for step in range(10):
            assert index.lookup(10**9 + step) == step

    def test_merge_applies_tombstones(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.5)
        index.delete(pairs[0][0])
        index.merge()
        assert index.lookup(pairs[0][0]) is None
        assert index.static_size == 99

    def test_merge_keeps_newest_version(self, encoding):
        pairs = sorted_pairs(50)
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.9)
        index.insert(pairs[7][0], 777)
        index.merge()
        assert index.lookup(pairs[7][0]) == 777
        assert index.static_size == 50

    def test_merge_counts_entries(self, encoding):
        index = DualStageIndex.bulk_load(sorted_pairs(100), encoding, merge_ratio=0.9)
        index.insert(1, 1)
        before = index.counters.get("merge_entry")
        index.merge()
        assert index.counters.get("merge_entry") - before == 101

    def test_invalid_merge_ratio(self):
        with pytest.raises(ValueError):
            DualStageIndex(merge_ratio=0.0)


def merge_ready(encoding):
    """An index whose next fresh insert triggers a merge."""
    index = DualStageIndex.bulk_load(sorted_pairs(100), encoding, merge_ratio=0.05)
    for step in range(5):
        index.insert(10**9 + step, step)
    assert index.merges == 0
    return index


def enumerate_merge_sites():
    """Observer mode: which injection points does one merge cross?"""
    index = merge_ready(LeafEncoding.SUCCINCT)
    with FaultInjector() as observer:
        index.insert(10**9 + 5, 5)
    assert index.merges == 1
    return observer.sites_seen()


MERGE_SITES = enumerate_merge_sites()


def test_merge_crosses_the_expected_sites():
    assert MERGE_SITES == {
        "dualstage.merge.collect": 1,
        "dualstage.merge.build": 1,
        "dualstage.merge.swap": 1,
    }


@pytest.mark.parametrize("site", sorted(MERGE_SITES))
def test_faulted_merge_keeps_the_insert_and_retries(site, encoding):
    """The insert lands before its merge runs; a fault at any merge site
    surfaces to the caller, leaves both stages serving the pre-merge
    state, and the next insert merges."""
    index = merge_ready(encoding)
    expected = dict(index.items())
    with FaultInjector(site=site, fail_at=1) as injector, pytest.raises(InjectedFault):
        index.insert(10**9 + 5, 5)
    assert injector.failures_injected == 1
    expected[10**9 + 5] = 5
    assert index.lookup(10**9 + 5) == 5
    assert index.merges == 0
    assert (index.static_size, index.dynamic_size) == (100, 6)  # neither stage swapped
    index.verify()
    assert dict(index.items()) == expected and index.num_keys == len(expected)
    index.insert(10**9 + 6, 6)
    expected[10**9 + 6] = 6
    assert index.merges == 1 and index.dynamic_size == 0
    index.verify()
    assert dict(index.items()) == expected


class TestAccounting:
    def test_probe_counters(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding)
        index.lookup(pairs[0][0])
        assert index.counters.get("bloom_probe") == 1
        assert index.counters.get("static_stage_probe") == 1

    def test_bloom_skips_dynamic_stage_for_merged_keys(self, encoding):
        pairs = sorted_pairs(500)
        index = DualStageIndex.bulk_load(pairs, encoding)
        for key, _ in pairs[::10]:
            index.lookup(key)
        # Nothing was inserted -> the bloom filter is empty -> no dynamic
        # stage probes at all.
        assert index.counters.get("dynamic_stage_probe") == 0

    def test_size_bytes_components(self, encoding):
        pairs = sorted_pairs(500)
        index = DualStageIndex.bulk_load(pairs, encoding)
        assert index.size_bytes() > 0
        before = index.size_bytes()
        # Enough inserts to cross the merge ratio: the static stage then
        # absorbs them and grows.  (Below the ratio the pre-allocated
        # Gapped dynamic leaf absorbs inserts without growing at all.)
        for step in range(60):
            index.insert(2 * 10**9 + step, step)
        assert index.merges >= 1
        assert index.size_bytes() > before

    def test_len_deduplicates_stages(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding, merge_ratio=0.9)
        index.insert(pairs[0][0], 1)   # shadow
        index.insert(3 * 10**9, 2)     # new
        assert len(index) == 101

    def test_len_drops_deleted_static_keys(self, encoding):
        pairs = sorted_pairs(100)
        index = DualStageIndex.bulk_load(pairs, encoding)
        for key, _ in pairs[:2]:
            assert index.delete(key)
        assert len(index) == index.num_keys == len(index.scan(0, 1000)) == 98
        assert list(index.items()) == pairs[2:]
        index.verify()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(min_value=0, max_value=80),
        ),
        max_size=60,
    ),
    st.sampled_from(STATIC_ENCODINGS),
)
def test_dualstage_matches_dict(operations, encoding):
    base = [(key, key) for key in range(0, 40, 2)]
    index = DualStageIndex.bulk_load(base, encoding, merge_ratio=0.3)
    reference = dict(base)
    for action, key in operations:
        if action == "insert":
            index.insert(key, key + 1)
            reference[key] = key + 1
        elif action == "delete":
            assert index.delete(key) == (key in reference)
            reference.pop(key, None)
        else:
            assert index.lookup(key) == reference.get(key)
    for key in range(81):
        assert index.lookup(key) == reference.get(key)
    assert len(index) == len(reference)
    assert list(index.items()) == sorted(reference.items())
