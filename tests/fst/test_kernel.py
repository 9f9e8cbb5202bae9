"""The FST navigation kernel against a sorted-list model.

Every read path (``lookup``, ``lookup_from``, ``step``, ``scan``,
``prefix_items``) must agree with a plain sorted list for any
dense/sparse split; ``step`` must agree with a navigator built from the
public ``select1`` / ``next1`` / ``rank1`` alone (the descent inlines the
select); and the ``fst_dense_visit`` / ``fst_sparse_visit``
totals — the cost model's inputs — are pinned as literals recorded from
the per-step-add implementation this kernel replaced, as are the
structure digests (the encoding may not drift when the speed does).
"""

import bisect
import hashlib
import random
import struct

import pytest

from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie
from repro.succinct.bitvector import SELECT_SAMPLE_RATE

_USERS = [b"al", b"alice", b"bob", b"carol", b"d", b"dave.x", b"eve", b"zed"]
_HOSTS = [b"@a.org", b"@ab.org", b"@b.com", b"@mail.b.com", b"@z.net"]


def email_pairs(count, seed):
    """Sorted unique 0x00-terminated (hence prefix-free) e-mail-like keys."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        user = rng.choice(_USERS) + bytes(rng.choices(b"0123456789._", k=rng.randint(0, 4)))
        keys.add(user + rng.choice(_HOSTS) + b"\x00")
    return [(key, index * 7 - 3) for index, key in enumerate(sorted(keys))]


def probes(pairs, seed):
    """Hits, misses, proper prefixes, extensions and the empty key."""
    rng = random.Random(seed)
    keys = [key for key, _ in pairs]
    found = [b"", b"\x00", b"\xff" * 3, keys[0], keys[-1]]
    for key in rng.sample(keys, min(40, len(keys))):
        cut = rng.randint(1, len(key) - 1)
        found += [key, key[:cut], key + b"x", key[:cut] + b"\x01", key[:-1] + b"\x01"]
    return found


def model_scan(pairs, start_key, count):
    keys = [key for key, _ in pairs]
    first = bisect.bisect_left(keys, start_key)
    return pairs[first : first + count]


def scan_starts(pairs, seed):
    """Present / absent / before-first / after-last start keys."""
    rng = random.Random(seed)
    keys = [key for key, _ in pairs]
    starts = [b"", b"\x00", keys[0], keys[-1], keys[-1] + b"\x00", b"\xff\xff"]
    for key in rng.sample(keys, min(12, len(keys))):
        starts += [key, key[: len(key) // 2], key[:-1] + b"\x01", key + b"a"]
    return starts


def dense_configs(pairs):
    return [0, 1, 2, FST(pairs).height]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_read_path_matches_the_model(seed):
    pairs = email_pairs(150 + 40 * seed, seed)
    model = dict(pairs)
    for dense_levels in dense_configs(pairs):
        fst = FST(pairs, dense_levels=dense_levels)
        batch = probes(pairs, seed)
        for key in batch:
            assert fst.lookup(key) == model.get(key), (dense_levels, key)
        # lookup_from resumes a descent that step() started.
        for key, value in pairs[:: max(1, len(pairs) // 25)]:
            node = 0
            for depth in range(min(3, len(key) - 1)):
                child, leaf, found = fst.step(node, key[depth])
                assert found and leaf is None
                assert fst.lookup_from(child, key, depth + 1) == value
                node = child
            assert fst.step(node, 0xFE) == (None, None, False)
        for start in scan_starts(pairs, seed):
            for count in (1, 7, len(pairs) + 5):
                assert fst.scan(start, count) == model_scan(pairs, start, count)
        for prefix in (b"", b"al", b"alice", b"bob@", b"nobody", pairs[5][0], pairs[5][0] + b"x"):
            expected = [pair for pair in pairs if pair[0].startswith(prefix)]
            assert list(fst.prefix_items(prefix)) == expected


@pytest.mark.parametrize("seed", [4, 5])
def test_hybrid_scan_matches_the_model_across_regions(seed):
    pairs = email_pairs(220, seed)
    for art_levels in (0, 1, 3):
        trie = HybridTrie(pairs, art_levels=art_levels, adaptive=False)
        trie.train([key for key, _ in pairs[::3]], rounds=2)
        assert trie.items() == pairs
        for start in scan_starts(pairs, seed):
            for count in (1, 9, len(pairs) + 5):
                assert trie.scan(start, count) == model_scan(pairs, start, count)


def reference_step(fst, node, label):
    """``step`` rebuilt from the public ``select1`` / ``next1`` / ``rank1``
    and bit reads alone: the oracle the inlined select is held to."""
    values = fst._values
    if fst.is_dense_node(node):
        position = node * 256 + label
        if not fst._dense_labels[position]:
            return None, None, False
        haschild = fst._dense_haschild
        if haschild[position]:
            return haschild.rank1(position + 1), None, True
        return None, values[fst._dense_labels.rank1(position) - haschild.rank1(position)], True
    louds = fst._sparse_louds
    start = louds.select1(node - fst.num_dense_nodes + 1)
    end = louds.next1(start + 1)
    labels = fst._sparse_labels[start:end]
    if label not in labels:
        return None, None, False
    position = start + labels.index(label)
    haschild = fst._sparse_haschild
    if haschild[position]:
        return fst._dense_hc_total + haschild.rank1(position + 1), None, True
    return None, values[fst._dense_terminal_total + position - haschild.rank1(position)], True


def node_labels(fst, node):
    """The labels of ``node`` per the reference primitives."""
    if fst.is_dense_node(node):
        return [label for label in range(256) if fst._dense_labels[node * 256 + label]]
    louds = fst._sparse_louds
    start = louds.select1(node - fst.num_dense_nodes + 1)
    return list(fst._sparse_labels[start : louds.next1(start + 1)])


def wide_pairs():
    """Two sparse nodes of more than 64 labels (one at bit 0, one mid-array:
    the ``next1`` fallback) among more than 3 x SELECT_SAMPLE_RATE nodes."""
    keys = []
    for first in range(1, 101):
        seconds = 80 if first == 50 else first % 13 + 1
        keys += [bytes([first, second, 0]) for second in range(1, seconds + 1)]
    return [(key, index) for index, key in enumerate(keys)]


def assert_step_matches_reference(fst):
    for node in range(fst.num_nodes):
        present = node_labels(fst, node)
        absent = min(set(range(256)) - set(present))
        for label in present + [absent]:
            assert fst.step(node, label) == reference_step(fst, node, label), (node, label)


@pytest.mark.parametrize("dense_levels", [0, 1, 2])
def test_step_matches_the_public_primitives(dense_levels):
    fst = FST(email_pairs(300, 11), dense_levels=dense_levels)
    assert fst.num_nodes > fst.num_dense_nodes
    assert_step_matches_reference(fst)


@pytest.mark.parametrize("dense_levels", [0, 1])
def test_step_matches_on_wide_nodes_past_several_select_samples(dense_levels):
    fst = FST(wide_pairs(), dense_levels=dense_levels)
    assert fst.num_nodes - fst.num_dense_nodes > 3 * SELECT_SAMPLE_RATE
    assert max(len(fst.children(node)) for node in range(fst.num_dense_nodes, fst.num_nodes)) > 64
    assert_step_matches_reference(fst)


def scan_cases(pairs):
    """Every third key and a proper prefix of each, at counts 1, 20, 200."""
    keys = [key for key, _ in pairs]
    starts = keys[::3] + [key[: 1 + index % (len(key) - 1)] for index, key in enumerate(keys[1::3])]
    return [(start, count) for start in starts for count in (1, 20, 200)]


def test_scan_from_every_third_key_and_prefix():
    pairs = email_pairs(300, 11)
    for dense_levels in (0, 1, 2):
        fst = FST(pairs, dense_levels=dense_levels)
        for start, count in scan_cases(pairs):
            assert fst.scan(start, count) == model_scan(pairs, start, count), (start, count)
    pairs = wide_pairs()
    fst = FST(pairs, dense_levels=0)
    for start, count in scan_cases(pairs):
        assert fst.scan(start, count) == model_scan(pairs, start, count), (start, count)


@pytest.mark.parametrize("art_levels", [0, 1, 3])
def test_hybrid_scan_from_every_third_key_and_prefix(art_levels):
    pairs = email_pairs(300, 11)
    trie = HybridTrie(pairs, art_levels=art_levels, adaptive=False)
    trie.train([key for key, _ in pairs[::3]], rounds=2)
    for start, count in scan_cases(pairs):
        assert trie.scan(start, count) == model_scan(pairs, start, count), (start, count)


def node_paths(fst):
    """Every node's key prefix, from a breadth-first walk of ``children``."""
    paths = {0: b""}
    for node in range(fst.num_nodes):
        for label, child, _ in fst.children(node):
            if child is not None:
                paths[child] = paths[node] + bytes([label])
    return paths


def test_a_cursor_hands_over_only_to_the_next_node_of_its_level():
    """One ``scan_from`` walk meets a level's nodes consecutively, so each
    level's cursor hands a node the end of the one before it, and the
    first node the walk meets on a level selects.  A walk rooted at any
    node of the trie (sparse, split or all dense) enters each deeper
    level part way along, where a cursor that handed over from nothing
    (or from a node not just before) would read another node's labels."""
    pairs = email_pairs(300, 11)
    keys = [key for key, _ in pairs]
    past_last = keys[-1] + b"\x00"
    for dense_levels in dense_configs(pairs):
        fst = FST(pairs, dense_levels=dense_levels)
        for node, path in node_paths(fst).items():
            below = [pair for pair in pairs if pair[0].startswith(path)]
            inside = below[len(below) // 2][0]
            for start in (b"", b"\xff" * 8, past_last, path, inside):
                for count in (0, 1, 20, fst.num_keys):
                    result: list = []
                    fst.scan_from(node, path, start, count, result)
                    assert result == model_scan(below, start, count), (node, start, count)
                    if node == 0 and count:
                        assert fst.scan(start, count) == model_scan(pairs, start, count)


@pytest.mark.parametrize("dense_levels", [0, 2, "height"])
def test_a_node_past_the_last_raises_the_select_range_error(dense_levels):
    pairs = email_pairs(120, 3)
    levels = FST(pairs).height if dense_levels == "height" else dense_levels
    fst = FST(pairs, dense_levels=levels)
    key = pairs[0][0]
    for node in (fst.num_nodes, fst.num_nodes + 500):
        with pytest.raises(ValueError):
            fst.lookup_from(node, key, 1)
        with pytest.raises(ValueError):
            fst.step(node, key[1])
        with pytest.raises(ValueError):
            fst.scan_from(node, key[:1], key, 5, [])


#: Visit totals for the op list of :func:`run_pinned_ops` over
#: ``email_pairs(300, 11)``.  First recorded from the implementation this
#: kernel replaced (one ``counters.add`` per step, double-select node
#: range), when the sorted probes went through a prefix-resuming
#: ``lookup_many`` (12029 / 271+11758 / 552+11477 / 12029).  That batch
#: read is gone; these totals, for the same probes as per-key ``lookup``
#: calls, were recorded on the last commit that still had it, whose
#: kernel reproduced the first pins.
PINNED_VISITS = {
    0: {"fst_dense_visit": 0, "fst_sparse_visit": 13756},
    1: {"fst_dense_visit": 467, "fst_sparse_visit": 13289},
    2: {"fst_dense_visit": 930, "fst_sparse_visit": 12826},
    "height": {"fst_dense_visit": 13756, "fst_sparse_visit": 0},
}

def structure_sha256(fst):
    """sha256 over the encoding's fields, in order: the six counts, the
    level directory, each bitvector's bit length and words, the sparse
    label bytes and the values (little-endian u64 / i64)."""
    digest = hashlib.sha256()

    def u64s(*numbers):
        digest.update(struct.pack(f"<{len(numbers)}Q", *numbers))

    def bitvector(vector):
        u64s(len(vector), *vector._words)

    values = fst._values
    u64s(
        fst.num_keys,
        fst.num_nodes,
        fst.num_dense_nodes,
        fst.height,
        fst.dense_levels,
        len(values),
    )
    u64s(*fst._level_first_node)
    bitvector(fst._dense_labels)
    bitvector(fst._dense_haschild)
    digest.update(fst._sparse_labels)
    bitvector(fst._sparse_haschild)
    bitvector(fst._sparse_louds)
    digest.update(struct.pack(f"<{len(values)}q", *values))
    return digest.hexdigest()


#: ``structure_sha256(FST(email_pairs(300, 11), dense_levels=d))``, first
#: recorded on the last commit that also pinned the same fields as a
#: serialized blob's sha256.
PINNED_STRUCTURE_SHA256 = {
    0: "54808d785d85821e28306454f198a287ddb07ad30881fb0ca390d541ebe6c0ac",
    1: "da8af229092a819727b7a1b42f536fd92296688647ab224b13d9b5a7377971ce",
    2: "f4bc60dfb94bbd726f8d065a67ee86038a6dc8843efbeed073bb0279ebabdbe0",
}


def run_pinned_ops(fst, pairs):
    for key in probes(pairs, 11):
        fst.lookup(key)
    for key in sorted(probes(pairs, 12)):
        fst.lookup(key)
    for start in scan_starts(pairs, 11):
        fst.scan(start, 20)
    for prefix in (b"al", b"bob@", pairs[9][0], b"nobody"):
        list(fst.prefix_items(prefix))
    fst.step(0, pairs[0][0][0])


@pytest.mark.parametrize("dense_levels", [0, 1, 2, "height"])
def test_visit_counters_are_the_replaced_algorithms(dense_levels):
    pairs = email_pairs(300, 11)
    levels = FST(pairs).height if dense_levels == "height" else dense_levels
    fst = FST(pairs, dense_levels=levels)
    run_pinned_ops(fst, pairs)
    counts = fst.counters.snapshot()
    assert {
        "fst_dense_visit": counts.pop("fst_dense_visit", 0),
        "fst_sparse_visit": counts.pop("fst_sparse_visit", 0),
    } == PINNED_VISITS[dense_levels]
    assert counts == {}  # a zero flush must not invent a counter key


@pytest.mark.parametrize("dense_levels", [0, 1, 2])
def test_structure_is_identical_to_the_parent(dense_levels):
    fst = FST(email_pairs(300, 11), dense_levels=dense_levels)
    assert structure_sha256(fst) == PINNED_STRUCTURE_SHA256[dense_levels]
