"""The Fast Succinct Trie substrate (Zhang et al., SIGMOD 2018).

FST stores a trie without child pointers: navigation computes child
positions from rank/select queries over bitmaps.  The upper, frequently
accessed levels use the *LOUDS-dense* encoding (two 256-bit bitmaps per
node, fast random access); the lower levels use *LOUDS-sparse* (explicit
label bytes, smaller but requiring in-node search).

This implementation follows the same structure and size arithmetic; it
has no file format of its own (see DESIGN.md §6).
"""

from repro.fst.builder import TrieLevels, build_trie_levels
from repro.fst.trie import FST, choose_dense_cutoff

__all__ = [
    "FST",
    "TrieLevels",
    "build_trie_levels",
    "choose_dense_cutoff",
]
