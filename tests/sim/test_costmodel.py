"""Tests for the calibrated cost model."""

import re

import pytest

from repro.sim import counters as counters_module
from repro.sim.costmodel import (
    DEFAULT_COSTS_NS,
    CostModel,
    StorageDevice,
    storage_access_latency_us,
)


class TestPricing:
    def test_price_sums_events(self):
        model = CostModel()
        total = model.price({"inner_visit": 2, "leaf_visit:gapped": 1})
        assert total == 2 * 8.0 + 40.0

    def test_unknown_event_free(self):
        assert CostModel().price({"unpriced": 100}) == 0.0

    def test_price_per_op(self):
        model = CostModel()
        assert model.price_per_op({"inner_visit": 10}, 5) == 16.0
        assert model.price_per_op({"inner_visit": 10}, 0) == 0.0

    def test_with_overrides(self):
        model = CostModel().with_overrides(inner_visit=99.0)
        assert model.price({"inner_visit": 1}) == 99.0
        # Original unchanged.
        assert CostModel().price({"inner_visit": 1}) == 8.0

    def test_override_colon_names(self):
        model = CostModel().with_overrides(leaf_visit__gapped=1.0)
        assert model.price({"leaf_visit:gapped": 1}) == 1.0


class TestCalibration:
    """The constants must reproduce the paper's headline numbers."""

    def test_table1_lookup_latencies(self):
        model = CostModel()
        # Two inner levels + one leaf visit, as in the defaults note.
        gapped = model.price({"inner_visit": 2, "leaf_visit:gapped": 1})
        packed = model.price({"inner_visit": 2, "leaf_visit:packed": 1})
        succinct = model.price({"inner_visit": 2, "leaf_visit:succinct": 1})
        assert gapped == pytest.approx(56, abs=2)
        assert packed == pytest.approx(57, abs=2)
        assert succinct == pytest.approx(125, abs=2)

    def test_figure9_migration_ordering(self):
        model = CostModel()
        entries = 178
        cheap = model.price(
            {"migration:gapped->packed": 1, "migration_entry:cheap": entries}
        )
        recode = model.price(
            {"migration:succinct->gapped": 1, "migration_entry:recode": entries}
        )
        assert recode > 3 * cheap
        assert 1000 < recode < 2000  # paper: >1 us for a 70% leaf

    def test_trie_migration_asymmetry(self):
        model = CostModel()
        expand = model.price(
            {"migration:fst->art": 1, "migration_label:fst->art": 64}
        )
        compact = model.price({"migration:art->fst": 1})
        assert expand == pytest.approx(5060, abs=100)  # ~5 us at 50% occupancy
        assert compact == pytest.approx(100, abs=1)

    def test_sampling_costs(self):
        assert DEFAULT_COSTS_NS["sample_track"] == 60.0
        assert DEFAULT_COSTS_NS["sample_check"] <= 2.0


class TestStorageLatency:
    def test_figure3_device_ordering(self):
        page = 4096
        latencies = [
            storage_access_latency_us(device, write=False, compressed=False,
                                      uncompressed_bytes=page)
            for device in (
                StorageDevice.SATA_SSD,
                StorageDevice.NVME_SSD,
                StorageDevice.PMEM,
                StorageDevice.DRAM,
            )
        ]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] > 1000 * latencies[-1]  # SSD orders slower than DRAM

    def test_compression_adds_codec_cost_on_dram(self):
        plain = storage_access_latency_us(
            StorageDevice.DRAM, write=False, compressed=False, uncompressed_bytes=4096
        )
        compressed = storage_access_latency_us(
            StorageDevice.DRAM, write=False, compressed=True,
            uncompressed_bytes=4096, compressed_bytes=2048,
        )
        assert compressed > plain
        # But still far cheaper than any disk read.
        ssd = storage_access_latency_us(
            StorageDevice.SATA_SSD, write=False, compressed=False, uncompressed_bytes=4096
        )
        assert compressed < ssd / 10

    def test_writes_cost_more_than_reads(self):
        read = storage_access_latency_us(
            StorageDevice.NVME_SSD, write=False, compressed=False, uncompressed_bytes=4096
        )
        write = storage_access_latency_us(
            StorageDevice.NVME_SSD, write=True, compressed=False, uncompressed_bytes=4096
        )
        assert write > read

    def test_default_compressed_size(self):
        latency = storage_access_latency_us(
            StorageDevice.PMEM, write=False, compressed=True, uncompressed_bytes=4096
        )
        assert latency > 0


def documented_event_patterns():
    """The first column of the event table in ``repro.sim.counters``'s
    docstring, each ``<...>`` part matching one name segment."""
    rows = re.findall(r"^``(\S+)``  ", counters_module.__doc__, flags=re.MULTILINE)
    return {
        row: re.compile("[a-z]+".join(map(re.escape, re.split(r"<[a-z]+>", row))) + "$")
        for row in rows
    }


def test_event_table_lists_what_the_cost_model_prices():
    """Every priced event matches exactly one table row, and every row
    names at least one priced event."""
    patterns = documented_event_patterns()
    assert len(patterns) >= 20
    for event in DEFAULT_COSTS_NS:
        matching = [row for row, pattern in patterns.items() if pattern.match(event)]
        assert len(matching) == 1, (event, matching)
    for row, pattern in patterns.items():
        assert any(pattern.match(event) for event in DEFAULT_COSTS_NS), row
