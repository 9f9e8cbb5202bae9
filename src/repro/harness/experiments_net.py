"""Network front-end bench: tail latency under open-loop overload.

Two phases, four legs, every offered rate placed relative to a
capacity probe of the machine under test (ratios travel across
machines; absolute ops/sec do not):

Every leg serves a **durable** directory (``adaptive`` family, one WAL
per shard, ``sync="batch"``): that is where batching still pays for
itself.  On a WAL-less directory a per-request dispatch is an inline
call on the loop thread and coalescing on/off measures almost nothing;
behind a WAL, per-request dispatch is one ``fsync`` per PUT and
coalescing is group commit.

**Coalescing** — the same open-loop Zipf workload at ~1.35x the
per-request closed-loop capacity, served once with per-request
dispatch (``max_batch=1``) and once with the coalescer merging
in-flight requests into the shard routers' batch paths.  Above
per-request capacity the uncoalesced server's queue grows without
bound, so its p99 is the queueing collapse the open-loop generator is
designed to expose; the coalesced server amortizes the ``fsync`` across
batches and stays ahead of the same arrival stream.

**Admission** — the same workload at 2x capacity, served once with
admission control disabled (unbounded queueing: p999 runs away to the
drain deadline) and once with per-tenant token buckets and bounded
inflight queues (excess arrivals get backpressure *responses*; the
accepted work's p999 stays bounded by the inflight cap).

Latency is measured from each request's *scheduled arrival* and
unanswered requests are censored at the drain deadline — an overloaded
server cannot flatter its tail by throttling the generator or by not
answering.  Quantiles come from ``Histogram.quantile``.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.budget import TenantQuota
from repro.net.loadgen import LoadgenConfig, LoadgenResult, measure_capacity, run_loadgen
from repro.net.server import NetServer
from repro.net.tenancy import TenantDirectory, demo_directory


def _leg_summary(result: LoadgenResult, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    summary = result.summary()
    summary["p50_s"] = summary["latency"]["p50"]
    summary["p99_s"] = summary["latency"]["p99"]
    summary["p999_s"] = summary["latency"]["p999"]
    if extra:
        summary.update(extra)
    return summary


async def _run_leg(
    directory: TenantDirectory,
    config: LoadgenConfig,
    max_batch: int,
    admission: bool,
) -> Dict[str, Any]:
    try:
        async with NetServer(
            directory, max_batch=max_batch, admission=admission
        ) as server:
            result = await run_loadgen("127.0.0.1", server.port, config)
            coalescer = server.coalescer
            batches = coalescer.batches_flushed
            merged = coalescer.requests_coalesced
    finally:
        directory.close()
    return _leg_summary(
        result,
        {
            "batches": batches,
            "mean_batch": round(merged / batches, 2) if batches else 0.0,
        },
    )


def experiment_net_bench(
    keys_per_tenant: int = 5_000,
    num_tenants: int = 4,
    num_shards: int = 2,
    duration: float = 1.5,
    drain_timeout: float = 8.0,
    probe_duration: float = 0.8,
    probe_concurrency: int = 64,
    max_batch: int = 128,
    coalesce_overload: float = 1.35,
    admission_overload: float = 2.0,
    quota_fraction: float = 0.5,
    burst_fraction: float = 0.125,
    max_inflight: int = 64,
    get_fraction: float = 0.9,
    seed: int = 7,
) -> Dict:
    """Tail latency of the network front end: coalescing on/off at the
    same offered load, then 2x overload with/without admission control."""
    tenants = [f"t{i}" for i in range(num_tenants)]
    scratch = tempfile.TemporaryDirectory(prefix="repro-net-bench-")
    wal_root = Path(scratch.name)  # one sub-folder per leg

    def fresh_directory(leg: str, quota: Optional[TenantQuota] = None) -> TenantDirectory:
        return demo_directory(
            tenants,
            keys_per_tenant=keys_per_tenant,
            num_shards=num_shards,
            family="adaptive",
            quota=quota,
            durability_root=wal_root / leg,
        )

    def config(rate: float) -> LoadgenConfig:
        return LoadgenConfig(
            rate=rate,
            duration=duration,
            tenants=tenants,
            key_space=keys_per_tenant,
            get_fraction=get_fraction,
            seed=seed,
            drain_timeout=drain_timeout,
        )

    async def bench() -> Dict[str, Any]:
        # Capacity probe: closed-loop per-request throughput anchors
        # every offered rate to this machine's actual speed.
        directory = fresh_directory("probe")
        try:
            async with NetServer(directory, max_batch=1) as server:
                capacity = await measure_capacity(
                    "127.0.0.1",
                    server.port,
                    tenants,
                    keys_per_tenant,
                    concurrency=probe_concurrency,
                    duration=probe_duration,
                    seed=seed + 1,
                )
        finally:
            directory.close()

        rate_a = coalesce_overload * capacity
        legs: Dict[str, Dict[str, Any]] = {}
        legs["coalesce_off"] = await _run_leg(
            fresh_directory("coalesce_off"), config(rate_a), max_batch=1, admission=False
        )
        legs["coalesce_on"] = await _run_leg(
            fresh_directory("coalesce_on"), config(rate_a), max_batch=max_batch,
            admission=False,
        )

        rate_b = admission_overload * capacity
        quota = TenantQuota(
            ops_per_sec=quota_fraction * capacity / num_tenants,
            burst_ops=max(1.0, burst_fraction * capacity / num_tenants),
            max_inflight=max_inflight,
        )
        legs["overload_no_admission"] = await _run_leg(
            fresh_directory("overload_no_admission"), config(rate_b), max_batch=1,
            admission=False,
        )
        legs["overload_admission"] = await _run_leg(
            fresh_directory("overload_admission", quota), config(rate_b), max_batch=1,
            admission=True,
        )
        return {"capacity_rps": capacity, "rate_a": rate_a, "rate_b": rate_b, "legs": legs}

    try:
        outcome = asyncio.run(bench())
    finally:
        scratch.cleanup()
    legs = outcome["legs"]

    def row(phase: str, mode: str, leg: Dict[str, Any], offered_rps: float):
        return (
            phase,
            mode,
            int(round(offered_rps)),
            leg["ok"],
            leg["shed_throttled"] + leg["shed_overloaded"],
            leg["unanswered"],
            round(leg["p50_s"] * 1e3, 2),
            round(leg["p99_s"] * 1e3, 2),
            round(leg["p999_s"] * 1e3, 2),
            leg["mean_batch"],
        )

    p99_on = max(legs["coalesce_on"]["p99_s"], 1e-9)
    p999_admitted = max(legs["overload_admission"]["p999_s"], 1e-9)
    return {
        "headers": [
            "phase", "mode", "offered_rps", "ok", "shed", "unanswered",
            "p50_ms", "p99_ms", "p999_ms", "mean_batch",
        ],
        "rows": [
            row("coalesce", "off", legs["coalesce_off"], outcome["rate_a"]),
            row("coalesce", "on", legs["coalesce_on"], outcome["rate_a"]),
            row("overload", "no-admission", legs["overload_no_admission"], outcome["rate_b"]),
            row("overload", "admission", legs["overload_admission"], outcome["rate_b"]),
        ],
        "capacity_rps": round(outcome["capacity_rps"], 1),
        "offered_rps": {
            "coalesce": round(outcome["rate_a"], 1),
            "overload": round(outcome["rate_b"], 1),
        },
        "coalescing_p99_ratio": round(legs["coalesce_off"]["p99_s"] / p99_on, 2),
        "admission_p999_ratio": round(
            legs["overload_no_admission"]["p999_s"] / p999_admitted, 2
        ),
        "admission_sheds": legs["overload_admission"]["shed_throttled"]
        + legs["overload_admission"]["shed_overloaded"],
        "admission_p999_s": round(legs["overload_admission"]["p999_s"], 4),
        "legs": legs,
    }
