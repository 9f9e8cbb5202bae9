"""A trie scan walks the FST's level cursors in one loop.

``FST.scan_from`` reads a subtree in key order without a frame per
node: labels, child numbers and value indices come straight from the
words, and a level's cursor hands each node its start.  The budgets
below count Python-level calls (``sys.setprofile`` ``call`` events; each
operation is called through ``functools.partial``, so no test frame is
counted), so a regrown path fails on any host; each leaves the room
the router budgets in ``tests/service/test_dispatch.py`` leave for
other interpreter versions (26 for 23 calls).  What is left is the
entry frames and the ``BitVector.next1`` a node asks for when its
labels run past its LOUDS word.  ``items`` and ``prefix_items`` ride
the same walk, so they are budgeted here too.
"""

from collections import Counter
from functools import partial

from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie
from tests.fst.test_kernel import email_pairs, model_scan
from tests.helpers import count_calls

PAIRS = email_pairs(300, 11)
START = PAIRS[100][0]


def test_fst_scan_call_budget():
    """A ``scan(k, 20)`` makes at most 10 calls (8 on 3.11): the scan,
    its walk, one visit flush and 5 ``next1``.  With a recursive
    ``_scan`` and a ``_sparse_edges`` list per node it made 427."""
    fst = FST(PAIRS)
    assert fst.dense_levels == 0
    result, calls = count_calls(partial(fst.scan, START, 20))
    assert result == model_scan(PAIRS, START, 20)
    assert len(calls) <= 10, Counter(calls).most_common()


def test_hybrid_trie_scan_call_budget():
    """The same scan on an adaptive Hybrid Trie that is not a sample
    makes at most 17 calls (15 on 3.11): three ART-region frames, their
    two child listings, the sample gate and the FST walk below the
    compact branch; it made 424."""
    trie = HybridTrie(PAIRS)
    assert trie.manager.skip_length == 50
    result, calls = count_calls(partial(trie.scan, START, 20))
    assert result == model_scan(PAIRS, START, 20)
    assert trie.manager.counters.sampled == 0
    assert len(calls) <= 17, Counter(calls).most_common()


def test_fst_items_call_budget():
    """``items()`` makes at most 55 calls (48 on 3.11): itself, one walk
    and 46 ``next1``.  The recursive generator over a ``(label, edge)``
    list per node made 20 196."""
    fst = FST(PAIRS)
    result, calls = count_calls(partial(fst.items))
    assert result == PAIRS
    assert len(calls) <= 55, Counter(calls).most_common()


def test_fst_prefix_items_call_budget():
    """``prefix_items(b"al")`` makes at most 21 calls (18 on 3.11): itself,
    the descent, its visit flush, one walk and 14 ``next1``; it made
    5 483."""
    fst = FST(PAIRS)
    result, calls = count_calls(partial(fst.prefix_items, b"al"))
    assert result == [pair for pair in PAIRS if pair[0].startswith(b"al")]
    assert len(calls) <= 21, Counter(calls).most_common()


def charged(index, call):
    """The counter deltas ``call()`` leaves on ``index.counters``."""
    before = dict(index.counters.counts)
    call()
    return {
        event: count - before.get(event, 0)
        for event, count in index.counters.counts.items()
        if count != before.get(event, 0)
    }


def test_only_a_scan_or_a_descent_charges_visits():
    """The walk returns its visits and only a scan charges them:
    ``items()`` charges nothing, ``prefix_items`` its descent alone (two
    sparse steps for two bytes), and a Hybrid Trie's ``items()`` every
    FST node below its two ART levels once, as the recursive walk did."""
    fst = FST(PAIRS)
    assert charged(fst, fst.items) == {}
    assert charged(fst, partial(fst.prefix_items, b"al")) == {"fst_sparse_visit": 2}
    trie = HybridTrie(PAIRS)
    assert trie.art_levels == 2
    visits = charged(trie, trie.items)
    assert visits == {"art_visit": 7, "fst_sparse_visit": 2610}
    assert sum(visits.values()) == trie.fst.num_nodes
