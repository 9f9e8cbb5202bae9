"""Tests for the structural invariant validator."""

import pytest

from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.invariants import InvariantViolation, validate, violations_of
from repro.dualstage.index import DualStageIndex
from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie


def int_tree(n=500, encoding=LeafEncoding.GAPPED):
    return BPlusTree.bulk_load(
        [(key, key * 3) for key in range(n)], encoding, leaf_capacity=32
    )


def byte_pairs(n=300):
    return [(key.to_bytes(4, "big"), key) for key in range(0, n * 7, 7)]


class TestDispatch:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            violations_of(object())

    def test_validate_raises_with_violation_list(self):
        tree = int_tree()
        tree._num_keys += 1
        with pytest.raises(InvariantViolation) as exc_info:
            validate(tree)
        assert exc_info.value.violations
        assert "num_keys" in str(exc_info.value)

    def test_invariant_violation_is_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)


class TestBPlusTree:
    @pytest.mark.parametrize("encoding", list(LeafEncoding))
    def test_healthy_tree_is_clean(self, encoding):
        assert violations_of(int_tree(encoding=encoding)) == []

    def test_healthy_after_mixed_operations(self):
        tree = int_tree()
        for key in range(500, 650):
            tree.insert(key, key)
        for key in range(0, 100, 3):
            tree.delete(key)
        assert violations_of(tree) == []
        tree.verify()  # must not raise

    def test_detects_key_count_drift(self):
        tree = int_tree()
        tree._num_keys -= 2
        assert any("num_keys" in violation for violation in violations_of(tree))

    def test_detects_leaf_byte_drift(self):
        tree = int_tree()
        tree._leaf_bytes += 64
        assert any("leaf bytes" in violation for violation in violations_of(tree))

    def test_detects_leaf_count_drift(self):
        tree = int_tree()
        tree._num_leaves += 1
        assert any("num_leaves" in violation for violation in violations_of(tree))


class TestHybridTrie:
    def test_healthy_trie_is_clean(self):
        trie = HybridTrie(byte_pairs(), adaptive=False)
        assert violations_of(trie) == []
        trie.verify()

    def test_healthy_after_expansions(self):
        trie = HybridTrie(byte_pairs(), art_levels=1, adaptive=False)
        expanded = []
        for branch in _branches(trie):
            if trie.expand_branch(branch):
                expanded.append(branch)
            if len(expanded) == 3:
                break
        assert expanded
        assert violations_of(trie) == []
        for branch in expanded:
            assert trie.compact_branch(branch)
        assert violations_of(trie) == []

    def test_detects_branch_counter_drift(self):
        trie = HybridTrie(byte_pairs(), adaptive=False)
        trie._num_branches += 1
        assert any("branch" in violation for violation in violations_of(trie))

    def test_verify_walks_the_fst_once(self, monkeypatch):
        # The key-set diff and the FST's traversal check share one walk.
        trie = HybridTrie(byte_pairs(), adaptive=False)
        walks = []
        items = FST.items
        monkeypatch.setattr(FST, "items", lambda fst: walks.append(fst) or items(fst))
        trie.verify()
        assert walks == [trie.fst]


def _branches(trie):
    """All reachable TrieBranch wrappers, found by walking the upper ART."""
    from repro.hybridtrie.tagged import TrieBranch

    found = []

    def walk(node):
        if isinstance(node, TrieBranch):
            found.append(node)
            if node.expanded:
                walk(node.art_node)
            return
        for _, child in node.children_items():
            if not isinstance(child, int):
                walk(child)

    if trie._root is not None:
        walk(trie._root)
    return found


class TestFST:
    @pytest.mark.parametrize("dense_levels", [0, 2, 64])
    def test_healthy_fst_is_clean(self, dense_levels):
        fst = FST(byte_pairs(), dense_levels=dense_levels)
        assert violations_of(fst) == []
        fst.verify()

    def test_empty_fst_is_clean(self):
        assert violations_of(FST([])) == []

    def test_detects_missing_value(self):
        fst = FST(byte_pairs())
        fst._values.pop()
        assert any("value array" in violation for violation in violations_of(fst))

    def test_detects_corrupt_rank_directory(self):
        fst = FST(byte_pairs())
        fst._sparse_louds._words[0] ^= 0b100
        assert violations_of(fst)

    def test_detects_walk_out_of_order(self, monkeypatch):
        fst = FST(byte_pairs())
        walk = fst.scan_from

        def swapping_walk(node, path, start_key, count, result):
            visits = walk(node, path, start_key, count, result)
            result[3], result[4] = result[4], result[3]
            return visits

        monkeypatch.setattr(fst, "scan_from", swapping_walk)
        assert "traversal yields keys out of order" in violations_of(fst)


class TestDualStage:
    def test_healthy_index_is_clean(self):
        index = DualStageIndex(merge_ratio=0.2)
        for key in range(400):
            index.insert(key, key + 1)
        for key in range(0, 100, 5):
            index.delete(key)
        assert index.merges > 0
        assert violations_of(index) == []
        index.verify()

    def test_detects_tombstone_in_dynamic_stage(self):
        index = DualStageIndex()
        index._dynamic.insert(7, 70)  # bypass insert: it would merge at once
        index._tombstones.add(7)
        assert any("tombstoned" in violation for violation in violations_of(index))

    def test_detects_corrupt_block_directory(self):
        index = DualStageIndex.bulk_load([(key, key) for key in range(2000)])
        index._static._block_min_keys[1] += 1
        assert any("directory" in violation for violation in violations_of(index))
