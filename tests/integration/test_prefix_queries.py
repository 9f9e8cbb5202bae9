"""Tests for prefix queries on ART and FST (and their agreement)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.tree import ART, terminated
from repro.fst import FST


@pytest.fixture(scope="module")
def word_pairs():
    words = [
        b"car", b"carbon", b"card", b"carpet", b"cart", b"cartoon",
        b"cat", b"catalog", b"dog", b"dogma", b"dot",
    ]
    keys = sorted(terminated(word) for word in words)
    return [(key, index) for index, key in enumerate(keys)]


@pytest.fixture(scope="module")
def structures(word_pairs):
    return {
        "art": ART.from_sorted(word_pairs),
        "fst-auto": FST(word_pairs),
        "fst-sparse": FST(word_pairs, dense_levels=0),
        "fst-dense": FST(word_pairs, dense_levels=64),
    }


def reference_prefix(word_pairs, prefix):
    return [(key, value) for key, value in word_pairs if key.startswith(prefix)]


class TestPrefixItems:
    @pytest.mark.parametrize(
        "prefix",
        [b"car", b"cart", b"cat", b"d", b"", b"zebra", b"carpets"],
        ids=lambda p: p.decode() or "(empty)",
    )
    def test_all_structures_agree_with_reference(self, word_pairs, structures, prefix):
        expected = reference_prefix(word_pairs, prefix)
        for name, structure in structures.items():
            assert list(structure.prefix_items(prefix)) == expected, name

    def test_exact_key_as_prefix(self, word_pairs, structures):
        exact = terminated(b"cat")
        for name, structure in structures.items():
            result = list(structure.prefix_items(exact))
            assert len(result) == 1, name
            assert result[0][0] == exact

    def test_results_in_key_order(self, word_pairs, structures):
        for structure in structures.values():
            keys = [key for key, _ in structure.prefix_items(b"c")]
            assert keys == sorted(keys)

    def test_empty_structure(self):
        assert list(FST([]).prefix_items(b"x")) == []
        assert list(ART().prefix_items(b"x")) == []


class TestEmailStyleUsage:
    def test_all_addresses_under_one_host(self):
        from repro.workloads.datasets import email_keys

        emails = [terminated(email) for email in email_keys(400, rng=0)]
        pairs = [(email, index) for index, email in enumerate(emails)]
        fst = FST(pairs)
        host = emails[0].split(b"@")[0] + b"@"
        expected = [(key, value) for key, value in pairs if key.startswith(host)]
        assert list(fst.prefix_items(host)) == expected
        assert expected  # the host really has addresses


@settings(max_examples=20, deadline=None)
@given(
    # The 0x00 terminator convention requires null-free raw keys.
    st.lists(
        st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=6).map(bytes),
        unique=True,
        min_size=1,
        max_size=50,
    ),
    st.binary(max_size=4),
)
def test_prefix_property(raw_keys, prefix):
    keys = sorted({terminated(key) for key in raw_keys})
    pairs = [(key, index) for index, key in enumerate(keys)]
    art = ART.from_sorted(pairs)
    fst = FST(pairs)
    expected = [(key, value) for key, value in pairs if key.startswith(prefix)]
    assert list(art.prefix_items(prefix)) == expected
    assert list(fst.prefix_items(prefix)) == expected


class TestSuccessorAndRangeMembership:
    """``successor(low)`` answers range membership: ``[low, high]``
    holds a key iff the successor exists and is at most ``high``."""

    @pytest.fixture(scope="class")
    def indexed(self):
        import random

        rng = random.Random(9)
        keys = sorted(
            key.to_bytes(8, "big") for key in rng.sample(range(2**40), 800)
        )
        pairs = [(key, index) for index, key in enumerate(keys)]
        return pairs, ART.from_sorted(pairs), FST(pairs)

    def test_successor_exact_hit(self, indexed):
        pairs, art, fst = indexed
        for key, value in pairs[::97]:
            assert art.successor(key) == (key, value)
            assert fst.successor(key) == (key, value)

    def test_successor_between_keys(self, indexed):
        pairs, art, fst = indexed
        import bisect

        keys = [key for key, _ in pairs]
        probe = (int.from_bytes(pairs[100][0], "big") + 1).to_bytes(8, "big")
        position = bisect.bisect_left(keys, probe)
        expected = pairs[position]
        assert art.successor(probe) == expected
        assert fst.successor(probe) == expected

    def test_successor_past_end(self, indexed):
        _, art, fst = indexed
        assert art.successor(b"\xff" * 8) is None
        assert fst.successor(b"\xff" * 8) is None
