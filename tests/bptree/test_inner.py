"""Tests for B+-tree inner nodes."""

import pytest

from repro.bptree.inner import InnerNode
from repro.bptree.leaves import LeafEncoding, LeafNode
from repro.bptree.tree import BPlusTree


def leaf(*keys):
    return LeafNode([(key, key) for key in keys], LeafEncoding.GAPPED, capacity=16)


def three_leaf_tree():
    """Leaves [0..3], [4..7], [8..11] under one root with separators 4, 8."""
    tree = BPlusTree.bulk_load([(key, key) for key in range(12)], leaf_capacity=4, fill_factor=1.0)
    assert tree.root.keys == [4, 8]
    return tree


class TestRouting:
    """Routing is the tree's descent (``BPlusTree.find_leaf``); the rule
    it must keep is that a separator key routes to the right child."""

    def test_child_index_boundaries(self):
        tree = three_leaf_tree()
        children = tree.root.children
        for key, position in [(-5, 0), (3, 0), (4, 1), (7, 1), (8, 2), (99, 2)]:
            found, parent = tree.find_leaf(key)
            assert parent is tree.root
            assert found is children[position], key  # separators go right

    def test_route_returns_child(self):
        tree = three_leaf_tree()
        for key in range(12):
            found, _ = tree.find_leaf(key)
            assert found.lookup(key) == key

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            InnerNode([10], [leaf(1)])


class TestMutation:
    def test_insert_child(self):
        node = InnerNode([10], [leaf(1), leaf(10)])
        new_right = leaf(5)
        node.insert_child(0, 5, new_right)
        assert node.keys == [5, 10]
        assert node.children[1] is new_right

    def test_overfull(self):
        node = InnerNode([10], [leaf(1), leaf(10)])
        assert not node.is_overfull(4)
        node.insert_child(1, 20, leaf(20))
        node.insert_child(2, 30, leaf(30))
        assert node.is_overfull(3)

    def test_split(self):
        children = [leaf(i * 10) for i in range(5)]
        node = InnerNode([10, 20, 30, 40], children)
        left, separator, right = node.split()
        assert left is node
        assert separator == 30
        assert left.keys == [10, 20]
        assert right.keys == [40]
        assert len(left.children) + len(right.children) == 5


class TestSize:
    def test_size_model(self):
        node = InnerNode([10, 20], [leaf(1), leaf(10), leaf(20)])
        assert node.size_bytes() == 16 + 2 * 8 + 3 * 8
