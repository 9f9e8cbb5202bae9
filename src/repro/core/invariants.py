"""Structural invariant validation for every index family.

Migrations are the one place an adaptive index can corrupt itself: they
rewrite a unit's physical representation while the logical contents must
stay byte-for-byte identical.  This module is the referee — for each
index family it re-derives the structure's claimed bookkeeping from the
structure itself and reports every disagreement:

* **B+-tree** — separator bounds, per-leaf key order, the leaf chain
  versus the tree walk, occupancy, incremental byte accounting, and the
  encoding census versus a fresh recount;
* **Hybrid Trie** — live-branch and ART-byte accounting, no reachable
  detached wrappers, the census versus a walk, and a full key-set diff
  against the underlying (static, complete) FST;
* **FST** — LOUDS consistency: bitmap lengths versus node counts,
  has-child ⊆ labels, one incoming child edge per non-root node,
  terminal counts versus the value array, rank-directory integrity,
  and per-node label order;
* **Dual-Stage** — static-run order, block directory, tombstone
  discipline, the live key count, and the dynamic stage's B+-tree
  invariants;
* **ART** — key order and the key count.

Checkers return a list of human-readable violation strings (empty means
healthy); :func:`validate` raises :class:`InvariantViolation` instead.
The indexes expose this as ``.verify()`` — a structure that can prove
its own integrity after any failed migration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

if TYPE_CHECKING:
    from repro.dualstage.index import DualStageIndex
    from repro.fst.trie import FST


class InvariantViolation(AssertionError):
    """One or more structural invariants do not hold."""

    def __init__(self, violations: List[str]) -> None:
        self.violations = list(violations)
        summary = "; ".join(self.violations[:5])
        extra = len(self.violations) - 5
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(f"{len(self.violations)} invariant violation(s): {summary}")


def validate(index: object) -> None:
    """Raise :class:`InvariantViolation` unless ``index`` is healthy."""
    violations = violations_of(index)
    if violations:
        raise InvariantViolation(violations)


def violations_of(index: object) -> List[str]:
    """Dispatch to the family-specific checker by index type."""
    from repro.art.tree import ART
    from repro.bptree.tree import BPlusTree
    from repro.dualstage.index import DualStageIndex
    from repro.fst.trie import FST
    from repro.hybridtrie.tree import HybridTrie

    if isinstance(index, BPlusTree):
        return check_bptree(index)
    if isinstance(index, HybridTrie):
        return check_trie(index)
    if isinstance(index, FST):
        return check_fst(index)
    if isinstance(index, DualStageIndex):
        return check_dualstage(index)
    if isinstance(index, ART):
        return check_art(index)
    raise TypeError(f"no invariant checker for {type(index).__name__}")


# ----------------------------------------------------------------------
# B+-tree
# ----------------------------------------------------------------------
def check_bptree(tree: Any) -> List[str]:
    """All violations of a (plain or adaptive) B+-tree's invariants."""
    from repro.bptree.inner import InnerNode

    violations: List[str] = []
    leaves_in_order = []

    def visit(node: Any, lo: Any, hi: Any) -> None:
        if isinstance(node, InnerNode):
            if node.keys != sorted(node.keys):
                violations.append(f"inner node keys out of order: {node.keys[:8]}")
            if len(node.children) != len(node.keys) + 1:
                violations.append(
                    f"inner node has {len(node.children)} children for "
                    f"{len(node.keys)} keys"
                )
            bounds = [lo, *node.keys, hi]
            for index, child in enumerate(node.children):
                visit(child, bounds[index], bounds[index + 1])
            return
        leaves_in_order.append(node)
        if node.num_entries() > node.capacity:
            violations.append(
                f"leaf {node.leaf_id} holds {node.num_entries()} entries "
                f"over capacity {node.capacity}"
            )
        keys = [key for key, _ in node.to_pairs()]
        if keys != sorted(set(keys)):
            violations.append(f"leaf {node.leaf_id} keys out of order")
        for key in keys:
            if lo is not None and key < lo:
                violations.append(
                    f"leaf {node.leaf_id} key {key} below separator {lo}"
                )
                break
            if hi is not None and key >= hi:
                violations.append(
                    f"leaf {node.leaf_id} key {key} not below separator {hi}"
                )
                break

    visit(tree.root, None, None)

    chain = list(tree.leaves())
    if chain != leaves_in_order:
        violations.append(
            f"leaf chain ({len(chain)} leaves) disagrees with tree walk "
            f"({len(leaves_in_order)} leaves)"
        )
    previous_max = None
    for leaf in chain:
        min_key, max_key = leaf.min_key(), leaf.max_key()
        if previous_max is not None and min_key is not None and min_key <= previous_max:
            violations.append(
                f"leaf {leaf.leaf_id} min key {min_key} overlaps previous "
                f"leaf's max {previous_max}"
            )
        if max_key is not None:
            previous_max = max_key

    total_entries = sum(leaf.num_entries() for leaf in leaves_in_order)
    if total_entries != tree.num_keys:
        violations.append(
            f"leaves hold {total_entries} entries but num_keys is {tree.num_keys}"
        )
    if len(leaves_in_order) != tree.num_leaves:
        violations.append(
            f"tree walk found {len(leaves_in_order)} leaves but num_leaves "
            f"is {tree.num_leaves}"
        )
    actual_leaf_bytes = sum(leaf.size_bytes() for leaf in leaves_in_order)
    if actual_leaf_bytes != tree._leaf_bytes:
        violations.append(
            f"incremental leaf bytes {tree._leaf_bytes} != recomputed "
            f"{actual_leaf_bytes}"
        )

    # Census versus reality: the reported census must match a recount.
    recount = {}
    for leaf in leaves_in_order:
        count, total = recount.get(leaf.encoding, (0, 0))
        recount[leaf.encoding] = (count + 1, total + leaf.size_bytes())
    census = tree.encoding_census()
    if set(census) != set(recount):
        violations.append(
            f"census encodings {sorted(map(str, census))} != walk "
            f"{sorted(map(str, recount))}"
        )
    else:
        for encoding, (count, _) in census.items():
            if count != recount[encoding][0]:
                violations.append(
                    f"census counts {count} {encoding} leaves, walk found "
                    f"{recount[encoding][0]}"
                )
    return violations


# ----------------------------------------------------------------------
# Hybrid Trie
# ----------------------------------------------------------------------
def check_trie(trie: Any) -> List[str]:
    """All violations of a Hybrid Trie's invariants (FST included)."""
    from repro.hybridtrie.tagged import TrieBranch, TrieEncoding

    violations: List[str] = []
    compact_count = 0
    expanded_count = 0
    art_bytes = 0

    def walk(current: Any) -> None:
        nonlocal compact_count, expanded_count, art_bytes
        if isinstance(current, TrieBranch):
            if current.detached:
                violations.append(
                    f"detached branch {current.branch_id} (fst node "
                    f"{current.fst_node}) still reachable"
                )
                return
            if current.expanded:
                expanded_count += 1
                walk(current.art_node)
            else:
                compact_count += 1
            return
        art_bytes += current.size_bytes()
        for _, child in current.children_items():
            if not isinstance(child, int):
                walk(child)

    if trie._root is not None:
        walk(trie._root)
    if art_bytes != trie._art_bytes:
        violations.append(
            f"incremental ART bytes {trie._art_bytes} != recomputed {art_bytes}"
        )

    live = compact_count + expanded_count
    if live != trie.num_branches:
        violations.append(
            f"branch counter says {trie.num_branches} live branches, walk "
            f"found {live}"
        )

    census = trie.encoding_census()
    fst_count, _ = census.get(TrieEncoding.FST, (0, 0.0))
    art_count, _ = census.get(TrieEncoding.ART, (0, 0.0))
    if fst_count != compact_count or art_count != expanded_count:
        violations.append(
            f"census (fst={fst_count}, art={art_count}) != walk "
            f"(fst={compact_count}, art={expanded_count})"
        )

    if trie.num_keys != trie.fst.num_keys:
        violations.append(
            f"trie num_keys {trie.num_keys} != fst num_keys {trie.fst.num_keys}"
        )

    # Key-set diff against the static, complete FST: the hybrid view must
    # surface exactly the same pairs in exactly the same order.
    hybrid_items = trie.items()
    fst_items = trie.fst.items()
    if hybrid_items != fst_items:
        missing = len(set(fst_items) - set(hybrid_items))
        extra = len(set(hybrid_items) - set(fst_items))
        violations.append(
            f"hybrid view lost {missing} and invented {extra} pairs versus "
            f"the FST ({len(hybrid_items)} vs {len(fst_items)} total)"
        )

    # The FST's own checks reuse that walk rather than take a second one.
    violations.extend(_louds_violations(trie.fst) or _walk_violations(trie.fst, fst_items))
    return violations


# ----------------------------------------------------------------------
# FST (LOUDS consistency)
# ----------------------------------------------------------------------
def _check_rank_directory(name: str, vector: Any, violations: List[str]) -> None:
    if not vector.sealed:
        violations.append(f"{name} bitvector is not sealed")
        return
    running = 0
    blocks = [0]
    for word in vector._words:
        running += word.bit_count()
        blocks.append(running)
    if blocks != vector._rank_blocks:
        violations.append(f"{name} rank directory disagrees with payload")
    from repro.succinct.bitvector import SELECT_SAMPLE_RATE

    select1 = []
    running = 0
    next_one = 1
    for word_index, word in enumerate(vector._words):
        running += word.bit_count()
        while next_one <= running:
            select1.append(word_index)
            next_one += SELECT_SAMPLE_RATE
    if select1 != vector._select1_directory:
        violations.append(f"{name} select1 sample directory disagrees with payload")
    if running != vector.ones:
        violations.append(
            f"{name} cached popcount {vector.ones} != actual {running}"
        )
    spare_bits = len(vector._words) * 64 - len(vector)
    if spare_bits < 0:
        violations.append(
            f"{name} declares {len(vector)} bits but stores only "
            f"{len(vector._words)} words"
        )
    elif vector._words and len(vector) % 64:
        last = vector._words[-1]
        if last >> (len(vector) % 64):
            violations.append(f"{name} has bits set beyond its declared length")


def check_fst(fst: FST) -> List[str]:
    """All violations of an FST's LOUDS and value-array invariants."""
    return _louds_violations(fst) or _walk_violations(fst, fst.items())


def _louds_violations(fst: FST) -> List[str]:
    """Every check of :func:`check_fst` that does not walk the keys."""
    violations: List[str] = []

    for name, vector in (
        ("dense_labels", fst._dense_labels),
        ("dense_haschild", fst._dense_haschild),
        ("sparse_haschild", fst._sparse_haschild),
        ("sparse_louds", fst._sparse_louds),
    ):
        _check_rank_directory(name, vector, violations)
    if violations:
        return violations  # rank/select is unusable; later checks would lie

    if len(fst._dense_labels) != 256 * fst.num_dense_nodes:
        violations.append(
            f"dense label bitmap has {len(fst._dense_labels)} bits for "
            f"{fst.num_dense_nodes} dense nodes"
        )
    if len(fst._dense_haschild) != len(fst._dense_labels):
        violations.append("dense has-child bitmap length != label bitmap length")
    for index, (label_word, haschild_word) in enumerate(
        zip(fst._dense_labels._words, fst._dense_haschild._words)
    ):
        if haschild_word & ~label_word:
            violations.append(f"dense has-child bit without label bit (word {index})")
            break

    sparse_count = len(fst._sparse_labels)
    if len(fst._sparse_haschild) != sparse_count or len(fst._sparse_louds) != sparse_count:
        violations.append(
            f"sparse arrays disagree: {sparse_count} labels, "
            f"{len(fst._sparse_haschild)} has-child bits, "
            f"{len(fst._sparse_louds)} LOUDS bits"
        )
        return violations

    sparse_nodes = fst.num_nodes - fst.num_dense_nodes
    louds_ones = fst._sparse_louds.ones if sparse_count else 0
    if louds_ones != sparse_nodes:
        violations.append(
            f"LOUDS marks {louds_ones} sparse nodes, numbering implies "
            f"{sparse_nodes}"
        )
    if sparse_count and not fst._sparse_louds[0]:
        violations.append("first sparse label is not a node start")

    # Per-node sparse labels must be strictly increasing.
    node_start = 0
    for position in range(1, sparse_count):
        if fst._sparse_louds[position]:
            node_start = position
        elif fst._sparse_labels[position - 1] >= fst._sparse_labels[position]:
            violations.append(
                f"sparse node starting at {node_start} has unsorted labels"
            )
            break

    if fst.num_nodes:
        dense_children = fst._dense_haschild.ones if len(fst._dense_haschild) else 0
        sparse_children = fst._sparse_haschild.ones if sparse_count else 0
        if dense_children + sparse_children != fst.num_nodes - 1:
            violations.append(
                f"{dense_children + sparse_children} child edges for "
                f"{fst.num_nodes} nodes (expected {fst.num_nodes - 1})"
            )

    dense_ones = fst._dense_labels.ones if len(fst._dense_labels) else 0
    dense_children = fst._dense_haschild.ones if len(fst._dense_haschild) else 0
    dense_terminals = dense_ones - dense_children
    sparse_terminals = sparse_count - (fst._sparse_haschild.ones if sparse_count else 0)
    if fst._dense_hc_total != dense_children:
        violations.append(
            f"cached dense child total {fst._dense_hc_total} != {dense_children}"
        )
    if fst._dense_terminal_total != dense_terminals:
        violations.append(
            f"cached dense terminal total {fst._dense_terminal_total} != "
            f"{dense_terminals}"
        )
    terminals = dense_terminals + sparse_terminals
    if len(fst._values) != terminals:
        violations.append(
            f"value array holds {len(fst._values)} values for {terminals} "
            f"terminal labels"
        )
    if terminals != fst.num_keys:
        violations.append(
            f"{terminals} terminal labels for {fst.num_keys} keys"
        )

    levels = fst._level_first_node
    if len(levels) != fst.height:
        violations.append(
            f"level directory has {len(levels)} entries for height {fst.height}"
        )
    if levels and levels[0] != 0:
        violations.append(f"level directory starts at node {levels[0]}, not 0")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        violations.append("level directory is not strictly increasing")
    if levels and levels[-1] >= fst.num_nodes:
        violations.append(
            f"last level starts at node {levels[-1]} >= num_nodes {fst.num_nodes}"
        )

    return violations


def _walk_violations(fst: FST, items: List[Tuple[bytes, int]]) -> List[str]:
    """Census versus reality: every key must be reachable by traversal
    (``items``, the pairs of ``fst.items()``), in key order."""
    violations: List[str] = []
    keys = [key for key, _ in items]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        violations.append("traversal yields keys out of order")
    if len(keys) != fst.num_keys:
        violations.append(
            f"traversal reaches {len(keys)} keys, header claims {fst.num_keys}"
        )
    return violations


# ----------------------------------------------------------------------
# Dual-Stage
# ----------------------------------------------------------------------
def check_dualstage(index: DualStageIndex) -> List[str]:
    """All violations of a Dual-Stage index's invariants."""
    from repro.succinct.for_codec import ForRun

    violations: List[str] = []

    static = index._static
    static_items = static.to_pairs()
    keys = [key for key, _ in static_items]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        violations.append("static stage keys are not strictly sorted")
    if len(static_items) != static.num_entries():
        violations.append(
            f"static stage iterates {len(static_items)} entries but claims "
            f"{static.num_entries()}"
        )
    if isinstance(static, ForRun):
        for block_index, block in enumerate(static._key_blocks):
            if len(block) and block[0] != static._block_min_keys[block_index]:
                violations.append(
                    f"static block {block_index} directory min "
                    f"{static._block_min_keys[block_index]} != first key "
                    f"{block[0]}"
                )
                break

    for key in index._tombstones:
        if index._dynamic.lookup(key) is not None:
            violations.append(f"tombstoned key {key} still lives in the dynamic stage")
            break

    live = sum(1 for _ in index.items())
    if live != index.num_keys:
        violations.append(f"stages hold {live} live keys but num_keys is {index.num_keys}")

    violations.extend(
        f"dynamic stage: {violation}" for violation in check_bptree(index._dynamic)
    )
    return violations


# ----------------------------------------------------------------------
# ART
# ----------------------------------------------------------------------
def check_art(tree: Any) -> List[str]:
    """All violations of an ART's invariants: key order and key count."""
    violations: List[str] = []
    keys = [key for key, _ in tree.items()]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        violations.append("ART iterates its keys out of order")
    if len(keys) != tree.num_keys:
        violations.append(f"ART iterates {len(keys)} keys but num_keys is {tree.num_keys}")
    return violations
