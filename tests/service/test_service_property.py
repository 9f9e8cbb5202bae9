"""Property test: the router always agrees with a plain model dict."""

import contextlib

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.service.partition import PartitionError
from repro.service.router import ShardRouter

KEYS = st.integers(min_value=-1000, max_value=1000)
VALUES = st.integers(min_value=-(2**31), max_value=2**31)


#: (family, replication factor): the plain OLC shard, and the adaptive
#: family as one copy and as a replica set — one lifecycle serves all.
SHAPES = st.sampled_from([("olc", 1), ("adaptive", 1), ("adaptive", 2)])


class RouterAgreesWithModel(RuleBasedStateMachine):
    """Random put/delete/get/scan/split/merge vs. a model dict."""

    @initialize(
        pairs=st.dictionaries(KEYS, VALUES, min_size=4, max_size=64),
        num_shards=st.integers(min_value=1, max_value=4),
        shape=SHAPES,
    )
    def build(self, pairs, num_shards, shape):
        self.model = dict(pairs)
        family, factor = shape
        self.router = ShardRouter.build(
            sorted(self.model.items()),
            family=family,
            num_shards=num_shards,
            partitioning="range",
            replication_factor=factor,
        )

    def teardown(self):
        if hasattr(self, "router"):
            self.router.close()

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.router.put(key, value)
        self.model[key] = value

    @rule(pairs=st.lists(st.tuples(KEYS, VALUES), max_size=16))
    def put_many(self, pairs):
        self.router.put_many(pairs)
        self.model.update(pairs)

    @rule(key=KEYS)
    def delete(self, key):
        assert self.router.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get(self, key):
        assert self.router.get(key) == self.model.get(key)

    @rule(keys=st.lists(KEYS, max_size=16))
    def get_many(self, keys):
        assert self.router.get_many(keys) == [self.model.get(key) for key in keys]

    @rule(start=KEYS, count=st.integers(min_value=0, max_value=32))
    def scan(self, start, count):
        expected = sorted(
            (key, value) for key, value in self.model.items() if key >= start
        )[:count]
        assert self.router.scan(start, count) == expected

    @rule(data=st.data())
    def split(self, data):
        shard_id = data.draw(
            st.integers(min_value=0, max_value=self.router.num_shards - 1)
        )
        # Shard may be too small to split.
        with contextlib.suppress(PartitionError):
            self.router.split_shard(shard_id)

    @rule(data=st.data())
    def merge(self, data):
        if self.router.num_shards < 2:
            return
        shard_id = data.draw(
            st.integers(min_value=0, max_value=self.router.num_shards - 2)
        )
        self.router.merge_shards(shard_id)

    @invariant()
    def contents_match_model(self):
        if not hasattr(self, "router"):
            return
        assert len(self.router) == len(self.model)
        assert self.router.scan(-(10**6), 10**6) == sorted(self.model.items())

    @invariant()
    def structure_verifies(self):
        if hasattr(self, "router"):
            self.router.verify()


RouterAgreesWithModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestRouterAgreesWithModel = RouterAgreesWithModel.TestCase
