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
labels run past its LOUDS word.
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
