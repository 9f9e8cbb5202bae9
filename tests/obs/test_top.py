"""The ops console renderer is a pure function over STATS snapshots."""

from repro.obs.top import _fmt_bytes, _fmt_ms, render_snapshot


def snapshot(**overrides):
    base = {
        "server": {
            "connections": 3,
            "requests": 1000,
            "responses": 990,
            "sheds": 10,
            "protocol_errors": 0,
            "admission": True,
        },
        "coalescer": {
            "enabled": True,
            "max_batch": 128,
            "batches_flushed": 50,
            "requests_coalesced": 400,
        },
        "tenants": {
            "alpha": {"num_shards": 2, "num_keys": 5000, "size_bytes": 123456},
            "beta": {"num_shards": 1, "num_keys": 100, "size_bytes": 2048},
        },
        "arbiter": {
            "tenants": {
                "alpha": {"inflight": 2, "admitted": 900, "throttled": 5, "overloaded": 5},
                "beta": {"inflight": 0, "admitted": 90, "throttled": 0, "overloaded": 0},
            }
        },
        "shards": {
            "alpha": [
                {
                    "shard_id": 0,
                    "family": "adaptive",
                    "num_keys": 2500,
                    "ops": 450,
                    "migrations": 3,
                    "wal_lag": 12,
                    "encoding_census": {
                        "gapped": {"count": 4, "avg_bytes": 100.0},
                        "succinct": {"count": 2, "avg_bytes": 60.0},
                    },
                }
            ]
        },
        "latency": {
            "net.request_seconds": {
                "count": 990,
                "mean": 0.002,
                "p50": 0.001,
                "p99": 0.009,
                "p999": 0.02,
            },
            "net.coalesce.batch_size": {
                "count": 50,
                "mean": 8.0,
                "p50": 8.0,
                "p99": 16.0,
                "p999": 16.0,
            },
        },
    }
    base.update(overrides)
    return base


class TestRenderSnapshot:
    def test_all_sections_render(self):
        frame = render_snapshot(snapshot())
        for expected in (
            "server: conns=3",
            "admission=on",
            "avg_batch=8.00",
            "alpha",
            "alpha/0",
            "gapped:4 succinct:2",
            "latency:",
        ):
            assert expected in frame, expected

    def test_durations_format_as_ms_but_sizes_do_not(self):
        frame = render_snapshot(snapshot())
        assert "9.00ms" in frame          # p99 of net.request_seconds
        assert "1000.00ms" not in frame   # batch-size histogram is unitless
        assert "16" in frame

    def test_shed_rates_are_interval_deltas_between_frames(self):
        first = snapshot()
        second = snapshot(
            arbiter={
                "tenants": {
                    # +100 admitted, +100 shed since the previous frame.
                    "alpha": {
                        "inflight": 1,
                        "admitted": 1000,
                        "throttled": 55,
                        "overloaded": 55,
                    },
                    "beta": {"inflight": 0, "admitted": 90, "throttled": 0, "overloaded": 0},
                }
            }
        )
        frame = render_snapshot(second, previous=first)
        assert " 50.0%" in frame   # alpha's interval shed rate
        assert "  0.0%" in frame   # beta idle

    def test_replicated_shards_render_one_row_per_replica(self):
        stats = snapshot()
        stats["shards"]["alpha"] = [
            {
                "shard_id": 0,
                "family": "adaptive",
                "num_keys": 2500,
                "ops": 450,
                "migrations": 10,
                "wal_lag": 12,
                "encoding_census": {"gapped": {"count": 9}},
                "replicas": [
                    {
                        "replica": 0,
                        "profile": "point",
                        "down": False,
                        "num_keys": 2500,
                        "ops": 300,
                        "migrations": 7,
                        "wal_lag": 0,
                        "encoding_census": {
                            "gapped": {"count": 7},
                            "succinct": {"count": 2},
                        },
                    },
                    {
                        "replica": 1,
                        "profile": "scan",
                        "down": True,
                        "num_keys": 2500,
                        "ops": 150,
                        "migrations": 3,
                        "wal_lag": 12,
                        "encoding_census": {"succinct": {"count": 9}},
                    },
                ],
            }
        ]
        frame = render_snapshot(stats)
        # Per-replica rows, not one aggregate row.
        assert "alpha/0.r0" in frame
        assert "alpha/0.r1" in frame
        assert "point" in frame
        assert "scan!" in frame      # down replicas are flagged
        assert "gapped:7 succinct:2" in frame
        assert "gapped:9" not in frame   # the aggregate census is hidden

    def test_missing_sections_degrade_gracefully(self):
        frame = render_snapshot({"server": {}, "coalescer": {}, "tenants": {}})
        assert "server:" in frame
        assert "shards:" not in frame
        assert "latency:" not in frame

    def test_formatters(self):
        assert _fmt_bytes(512.0) == "512B"
        assert _fmt_bytes(2048.0) == "2.0KiB"
        assert _fmt_ms(0.0015) == "1.50ms"
        assert _fmt_ms("n/a") == "-"
