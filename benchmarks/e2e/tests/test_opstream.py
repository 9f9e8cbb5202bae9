"""Same seed => byte-identical op stream; another seed => another stream."""

import calib
import opstream
import pytest
from opstream import GET, PUT, SCAN


def streams(seed):
    keys = opstream.int_keys(seed, 5_000)
    bounds = calib.phase_bounds(0, 1_500, 8) + calib.phase_bounds(1_500, 4_000, 4)
    return {
        "btree": opstream.btree_stream(seed, keys, 3_000),
        "router": opstream.router_stream(seed, keys, 500),
        "net_read": opstream.net_read_stream(seed, keys, 3_000),
        "net_write": opstream.net_write_stream(seed, keys, bounds),
    }


def test_same_seed_same_stream_other_seed_other_stream():
    first, again, other = streams(7), streams(7), streams(8)
    for name in first:
        assert opstream.digest(first[name]) == opstream.digest(again[name]), name
        assert opstream.digest(first[name]) != opstream.digest(other[name]), name


def test_trie_stream_repeats_too():
    pairs = opstream.email_pairs(3, 300)
    assert pairs == opstream.email_pairs(3, 300) and pairs != opstream.email_pairs(4, 300)
    one, two = (opstream.trie_stream(3, pairs, 800) for _ in range(2))
    assert opstream.digest(one) == opstream.digest(two)
    assert set(one.kinds) == {GET, SCAN}


def test_key_classes_never_collide():
    keys = opstream.int_keys(5, 5_000)
    assert len(set(keys.tolist())) == 5_000 and (keys % 4 == 0).all()
    stream = opstream.btree_stream(5, keys, 4_000)
    inserted = [k for k, kind in zip(stream.keys, stream.kinds) if kind == PUT]
    assert inserted and len(set(inserted)) == len(inserted)
    assert all(key % 4 == 1 for key in inserted)
    shares = [stream.kinds.count(kind) / len(stream) for kind in (GET, PUT, SCAN)]
    assert shares == pytest.approx([0.90, 0.05, 0.05], abs=0.02)


def test_hot_set_moves_half_way():
    keys = opstream.int_keys(9, 5_000)
    stream = opstream.btree_stream(9, keys, 20_000)
    reads = [(i, k) for i, (k, kind) in enumerate(zip(stream.keys, stream.kinds)) if kind == GET]
    first = {k for i, k in reads if i < 10_000}
    hottest = max(first, key=[k for i, k in reads if i < 10_000].count)
    before = sum(1 for i, k in reads if i < 10_000 and k == hottest)
    after = sum(1 for i, k in reads if i >= 10_000 and k == hottest)
    assert before > 10 * max(1, after)


def test_net_write_slices_have_one_right_answer_per_reply():
    keys = opstream.int_keys(11, 5_000)
    bounds = calib.phase_bounds(0, 2_000, 8) + calib.phase_bounds(2_000, 6_000, 4)
    stream = opstream.net_write_stream(11, keys, bounds)
    assert len(stream) == 6_000
    reread = 0
    written = set()
    for lo, hi in bounds:
        puts = [stream.keys[i] for i in range(lo, hi) if stream.kinds[i] == PUT]
        gets = [stream.keys[i] for i in range(lo, hi) if stream.kinds[i] == GET]
        assert len(set(puts)) == len(puts), "two PUTs of one key in flight together"
        assert not set(puts) & set(gets), "a GET races a PUT of its key"
        reread += len(set(gets) & written)
        written.update(puts)
    assert reread > 0, "no GET ever read back an earlier slice's PUT"
    assert all(v > 0 for v, kind in zip(stream.values, stream.kinds) if kind == PUT)


def test_router_batches_are_full_and_puts_distinct():
    keys = opstream.int_keys(13, 5_000)
    stream = opstream.router_stream(13, keys, 600)
    for kind, payload in zip(stream.kinds, stream.payloads):
        if kind == GET:
            assert len(payload) == opstream.BATCH
        elif kind == PUT:
            batch_keys = [key for key, _ in payload]
            assert len(set(batch_keys)) == len(batch_keys) >= opstream.BATCH // 2 + 1
