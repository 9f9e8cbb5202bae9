"""Hash-map substrates for the sample store (Section 3.1.3).

The paper stores aggregated samples in "a high-performance hop-scotch
hash map for single-threaded execution [6], and a concurrent cuckoo-based
hash map for parallel workloads [34]".  This package implements both from
scratch:

* :class:`~repro.hashmap.hopscotch.HopscotchMap` — open addressing with
  hopscotch neighbourhoods (every key lives within H slots of its home
  bucket, so lookups probe one cache-line-sized window);
* :class:`~repro.hashmap.cuckoo.CuckooMap` — two-choice cuckoo hashing
  with BFS kickout paths and striped locks for concurrent readers and
  writers.

Python dicts are faster in CPython, so the adaptation manager's sample
store is a dict; ``benchmarks/bench_hashmaps.py`` measures both maps
against it, and the cuckoo-backed GS concurrency strategy keeps its
samples in a :class:`CuckooMap`.
"""

from repro.hashmap.cuckoo import CuckooMap
from repro.hashmap.hopscotch import HopscotchMap

__all__ = ["CuckooMap", "HopscotchMap"]
