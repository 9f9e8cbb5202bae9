"""Seeded inputs: the data sets and op streams of the five workloads.

Everything here is a pure function of ``(seed, sizes)``: the same seed
gives byte-identical streams (``digest`` proves it in the self-tests)
and the program under test only ever sees what is generated here.

Integer key space, by residue mod 4, so the three classes can never
collide: ``0`` preloaded keys, ``1`` keys inserted during the run,
``2`` keys that are never present (misses).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.art.tree import terminated
from repro.workloads.datasets import email_keys

TENANT = "bench"

#: Op kinds.  ``GET``/``PUT`` mean ``get_many(8)``/``put_many(8)`` on
#: ``router_batch`` and ``lookup``/``insert`` on the index workloads.
GET, PUT, SCAN = 0, 1, 2

ZIPF_ALPHA = 1.0
MISS_SHARE = 0.05
BATCH = 8
WIRE_SCAN_COUNT = 20
INDEX_SCAN_COUNT = 20
ROUTER_SCAN_COUNT = 50

_KEY_BITS = 38


def value_of(key: int) -> int:
    """The preloaded value of ``key`` (the server child recomputes it)."""
    return (key * 2654435761) % (1 << 61) + 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _unique_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct integers below ``2**_KEY_BITS``, in random order."""
    draws = np.unique(rng.integers(0, 1 << _KEY_BITS, size=count + count // 16 + 64))
    if len(draws) < count:
        raise ValueError(f"key space too small for {count} distinct keys")
    return rng.permutation(draws)[:count]


def int_keys(seed: int, count: int) -> np.ndarray:
    """The sorted preloaded keys (multiples of 4)."""
    return np.sort(_unique_draws(_rng(seed, 1), count)) * 4


def int_data(seed: int, count: int) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """The preloaded keys and their sorted ``(key, value_of(key))`` pairs."""
    keys = int_keys(seed, count)
    return keys, [(key, value_of(key)) for key in keys.tolist()]


def email_pairs(seed: int, count: int) -> List[Tuple[bytes, int]]:
    """Sorted terminated e-mail keys with their rank as the value."""
    keys = email_keys(count, rng=_rng(seed, 2))
    return [(terminated(key), rank) for rank, key in enumerate(keys)]


class Zipf:
    """Zipf(alpha) ranks over ``n`` items through a reshufflable permutation."""

    def __init__(self, n: int, rng: np.random.Generator, alpha: float = ZIPF_ALPHA) -> None:
        weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._rng = rng
        self._n = n
        self.reshuffle()

    def reshuffle(self) -> None:
        """Move the hot set: rank ``r`` now means a different item."""
        self._perm = self._rng.permutation(self._n)

    def draw(self, size: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, self._rng.random(size), side="left")
        return self._perm[np.minimum(ranks, self._n - 1)]


def _kinds(rng: np.random.Generator, size: int, shares: Sequence[float]) -> np.ndarray:
    """Kinds ``0..len(shares)-1`` drawn with the given shares."""
    edges = np.cumsum(shares)
    return np.searchsorted(edges / edges[-1], rng.random(size), side="right").astype(np.int64)


def _shifted_draw(zipf: Zipf, size: int) -> np.ndarray:
    """``size`` Zipf draws, the second half after the hot set has moved."""
    first = zipf.draw(size // 2)
    zipf.reshuffle()
    return np.concatenate([first, zipf.draw(size - size // 2)])


@dataclass
class IndexStream:
    """Single-key ops for ``btree_adapt`` / ``trie_adapt``."""

    kinds: List[int]
    keys: list

    def __len__(self) -> int:
        return len(self.kinds)


def btree_stream(seed: int, keys: np.ndarray, ops: int) -> IndexStream:
    """90 % lookup / 5 % insert (new keys) / 5 % scan; hot set moves half-way."""
    rng = _rng(seed, 11)
    kinds = _kinds(rng, ops, (0.90, 0.05, 0.05))  # GET, PUT, SCAN
    targets = keys[_shifted_draw(Zipf(len(keys), rng), ops)]
    inserts = kinds == PUT
    targets[inserts] = _unique_draws(rng, int(inserts.sum())) * 4 + 1
    return IndexStream(kinds.tolist(), targets.tolist())


def trie_stream(seed: int, pairs: Sequence[Tuple[bytes, int]], ops: int) -> IndexStream:
    """95 % lookup / 5 % scan over byte keys; hot set moves half-way."""
    rng = _rng(seed, 12)
    kinds = _kinds(rng, ops, (0.95, 0.0, 0.05))
    picks = _shifted_draw(Zipf(len(pairs), rng), ops)
    return IndexStream(kinds.tolist(), [pairs[i][0] for i in picks.tolist()])


@dataclass
class RouterStream:
    """Batched ops for ``router_batch``: one call = one op."""

    kinds: List[int]
    payloads: list  # GET: [key]*8; PUT: [(key, value)]*8; SCAN: start key

    def __len__(self) -> int:
        return len(self.kinds)


def router_stream(seed: int, keys: np.ndarray, ops: int) -> RouterStream:
    """70 % get_many(8) / 20 % put_many(8) / 10 % scan(50)."""
    rng = _rng(seed, 13)
    kinds = _kinds(rng, ops, (0.70, 0.20, 0.10)).tolist()
    zipf = Zipf(len(keys), rng)
    hot = keys[zipf.draw(ops * BATCH)].reshape(ops, BATCH)
    miss = rng.random((ops, BATCH)) < MISS_SHARE
    fresh = (_unique_draws(rng, ops * (BATCH // 2)) * 4 + 1).reshape(ops, BATCH // 2)
    hot_rows, miss_rows, fresh_rows = hot.tolist(), miss.tolist(), fresh.tolist()
    payloads: list = []
    for op, kind in enumerate(kinds):
        row = hot_rows[op]
        if kind == GET:
            payloads.append(
                [key + 2 if absent else key for key, absent in zip(row, miss_rows[op])]
            )
        elif kind == PUT:
            # Half overwrite hot keys, half brand-new; one value per op so
            # a stale read is distinguishable from a fresh one.
            batch = dict.fromkeys(row[: BATCH // 2] + fresh_rows[op])
            payloads.append([(key, value_of(key) + op + 1) for key in batch])
        else:
            payloads.append(row[0])
    return RouterStream(kinds, payloads)


@dataclass
class WireStream:
    """Single-request ops for the wire workloads; PUT values in ``values``."""

    kinds: List[int]
    keys: List[int]
    values: List[int]

    def __len__(self) -> int:
        return len(self.kinds)


def net_read_stream(seed: int, keys: np.ndarray, ops: int) -> WireStream:
    """95 % GET (5 % of them misses) / 5 % SCAN(20), Zipf."""
    rng = _rng(seed, 14)
    kinds = _kinds(rng, ops, (0.95, 0.0, 0.05))
    targets = keys[Zipf(len(keys), rng).draw(ops)]
    targets[(rng.random(ops) < MISS_SHARE) & (kinds == GET)] += 2
    return WireStream(kinds.tolist(), targets.tolist(), [0] * ops)


def net_write_stream(
    seed: int, keys: np.ndarray, bounds: Sequence[Tuple[int, int]]
) -> WireStream:
    """50 % PUT (half overwrite, half new key) / 50 % GET.

    Requests of one slice are in flight together and the server orders
    nothing between a GET batch and a PUT batch, so within each range of
    ``bounds`` every PUT key is distinct and no GET reads a key that the
    same range writes: each reply then has exactly one right answer.
    GETs do read keys written by *earlier* slices.
    """
    rng = _rng(seed, 15)
    zipf = Zipf(len(keys), rng)
    ops = bounds[-1][1]
    kinds = np.empty(ops, dtype=np.int64)
    targets = np.empty(ops, dtype=np.int64)
    values = np.zeros(ops, dtype=np.int64)
    written: List[np.ndarray] = []
    for lo, hi in bounds:
        size = hi - lo
        kind = _kinds(rng, size, (0.5, 0.5))  # GET, PUT
        puts = np.flatnonzero(kind == PUT)
        overwrite = np.unique(keys[zipf.draw(len(puts) // 2)])
        fresh = _unique_draws(rng, len(puts) - len(overwrite)) * 4 + 1
        put_keys = rng.permutation(np.concatenate([overwrite, fresh]))
        gets = np.flatnonzero(kind == GET)
        get_keys = keys[zipf.draw(len(gets))]
        if written:
            # One GET in ten reads back a key some earlier slice wrote.
            earlier = np.concatenate(written)
            reread = rng.random(len(gets)) < 0.10
            get_keys[reread] = earlier[rng.integers(0, len(earlier), int(reread.sum()))]
        clash = np.isin(get_keys, put_keys)
        get_keys[clash] += 2  # becomes a miss: never written, never preloaded
        miss = (rng.random(len(gets)) < MISS_SHARE) & (get_keys % 4 == 0)
        get_keys[miss] += 2
        kinds[lo:hi] = kind
        targets[lo + puts] = put_keys
        targets[lo + gets] = get_keys
        values[lo + puts] = rng.integers(1, 1 << 40, len(puts))
        written.append(put_keys)
    return WireStream(kinds.tolist(), targets.tolist(), values.tolist())


def digest(stream: object) -> str:
    """A hash of every field of a stream (same seed ⇒ same digest)."""
    hasher = hashlib.sha256()
    for name in sorted(vars(stream)):
        hasher.update(name.encode())
        hasher.update(repr(getattr(stream, name)).encode())
    return hasher.hexdigest()
