"""Wall-clock comparison of the sample-store hash maps.

The paper's C++ implementation uses a hopscotch map (single-threaded)
and a concurrent cuckoo map; in CPython the built-in dict is the
single-threaded sample store.  This benchmark measures the cuckoo map
(the GS store) against a dict and verifies that both behave identically.
"""

import random

import pytest

from repro.hashmap.cuckoo import CuckooMap

NUM_KEYS = 5_000
rng = random.Random(0)
KEYS = [rng.randrange(2**40) for _ in range(NUM_KEYS)]
PROBES = [rng.choice(KEYS) for _ in range(1_000)] + [
    rng.randrange(2**40) for _ in range(1_000)
]

FACTORIES = {
    "dict": dict,
    "cuckoo": lambda: CuckooMap(initial_buckets=256),
}


def build(factory):
    table = factory()
    for key in KEYS:
        table[key] = key
    return table


@pytest.mark.parametrize("name", list(FACTORIES), ids=list(FACTORIES))
def test_hashmap_insert(benchmark, name):
    benchmark(lambda: build(FACTORIES[name]))


@pytest.mark.parametrize("name", list(FACTORIES), ids=list(FACTORIES))
def test_hashmap_probe(benchmark, name):
    table = build(FACTORIES[name])

    def probe():
        hits = 0
        for key in PROBES:
            if table.get(key) is not None:
                hits += 1
        return hits

    hits = benchmark(probe)
    assert hits >= 1_000  # every known key must be found


def test_all_maps_agree():
    tables = {name: build(factory) for name, factory in FACTORIES.items()}
    for key in PROBES:
        expected = tables["dict"].get(key)
        assert tables["cuckoo"].get(key) == expected
