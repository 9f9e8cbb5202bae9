"""Hash-map substrate for the concurrent sample store (Section 3.1.3).

The paper stores aggregated samples in "a high-performance hop-scotch
hash map for single-threaded execution [6], and a concurrent cuckoo-based
hash map for parallel workloads [34]".  Python dicts are faster in
CPython, so the adaptation manager's single-threaded sample store is a
dict; the cuckoo-backed GS concurrency strategy keeps its samples in a
:class:`~repro.hashmap.cuckoo.CuckooMap` — two-choice cuckoo hashing with
BFS kickout paths and striped locks for concurrent readers and writers.
``benchmarks/bench_hashmaps.py`` measures it against a dict.
"""

from repro.hashmap.cuckoo import CuckooMap

__all__ = ["CuckooMap"]
