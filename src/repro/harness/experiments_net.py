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
answering.  The capacity probe and every leg's generator run in a
spawned child process, so their own send lag is never counted as the
server's (the server keeps its event loop to itself); a script calling
:func:`experiment_net_bench` needs the usual ``__main__`` guard.
Quantiles come from ``Histogram.quantile``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import tempfile
from concurrent.futures import Executor, ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.core.budget import TenantQuota
from repro.net.loadgen import LoadgenConfig, measure_capacity, run_loadgen
from repro.net.server import NetServer
from repro.net.tenancy import TenantDirectory, demo_directory

NUM_SHARDS = 2
PROBE_CONCURRENCY = 64
#: Coalesced legs merge up to this many in-flight requests per batch.
MAX_BATCH = 128
#: Offered load of the coalescing and the admission phase, as a
#: multiple of the probed per-request capacity.
COALESCE_OVERLOAD = 1.35
ADMISSION_OVERLOAD = 2.0
#: The admission leg's per-tenant quota, as shares of that capacity.
QUOTA_FRACTION = 0.5
BURST_FRACTION = 0.125
MAX_INFLIGHT = 64
GET_FRACTION = 0.9


def _loadgen_child(port: int, config: LoadgenConfig) -> Dict[str, Any]:
    """One open-loop run, in a child process; returns its summary."""
    return asyncio.run(run_loadgen("127.0.0.1", port, config)).summary()


def _capacity_child(
    port: int, tenants: Sequence[str], key_space: int, duration: float, seed: int
) -> float:
    """The closed-loop capacity probe, in a child process."""
    return asyncio.run(
        measure_capacity(
            "127.0.0.1",
            port,
            tenants,
            key_space,
            concurrency=PROBE_CONCURRENCY,
            duration=duration,
            seed=seed,
        )
    )


async def _run_leg(
    pool: Executor,
    directory: TenantDirectory,
    config: LoadgenConfig,
    max_batch: int,
    admission: bool,
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    try:
        async with NetServer(directory, max_batch=max_batch, admission=admission) as server:
            summary = await loop.run_in_executor(pool, _loadgen_child, server.port, config)
            coalescer = server.coalescer
            batches = coalescer.batches_flushed
            merged = coalescer.requests_coalesced
    finally:
        directory.close()
    latency = summary["latency"]
    summary.update(
        p50_s=latency["p50"],
        p99_s=latency["p99"],
        p999_s=latency["p999"],
        batches=batches,
        mean_batch=round(merged / batches, 2) if batches else 0.0,
    )
    return summary


def experiment_net_bench(
    keys_per_tenant: int = 5_000,
    num_tenants: int = 4,
    duration: float = 1.5,
    drain_timeout: float = 8.0,
    probe_duration: float = 0.8,
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
            num_shards=NUM_SHARDS,
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
            get_fraction=GET_FRACTION,
            seed=seed,
            drain_timeout=drain_timeout,
        )

    async def bench(pool: Executor) -> Dict[str, Any]:
        # Capacity probe: closed-loop per-request throughput anchors
        # every offered rate to this machine's actual speed.
        directory = fresh_directory("probe")
        loop = asyncio.get_running_loop()
        try:
            async with NetServer(directory, max_batch=1) as server:
                capacity = await loop.run_in_executor(
                    pool,
                    _capacity_child,
                    server.port,
                    tenants,
                    keys_per_tenant,
                    probe_duration,
                    seed + 1,
                )
        finally:
            directory.close()

        rate_a = COALESCE_OVERLOAD * capacity
        rate_b = ADMISSION_OVERLOAD * capacity
        quota = TenantQuota(
            ops_per_sec=QUOTA_FRACTION * capacity / num_tenants,
            burst_ops=max(1.0, BURST_FRACTION * capacity / num_tenants),
            max_inflight=MAX_INFLIGHT,
        )
        plan = {  # leg -> (offered rate, max_batch, admission, quota)
            "coalesce_off": (rate_a, 1, False, None),
            "coalesce_on": (rate_a, MAX_BATCH, False, None),
            "overload_no_admission": (rate_b, 1, False, None),
            "overload_admission": (rate_b, 1, True, quota),
        }
        legs: Dict[str, Dict[str, Any]] = {}
        for leg, (rate, max_batch, admission, leg_quota) in plan.items():
            directory = fresh_directory(leg, leg_quota)
            legs[leg] = await _run_leg(pool, directory, config(rate), max_batch, admission)
        return {"capacity_rps": capacity, "rate_a": rate_a, "rate_b": rate_b, "legs": legs}

    # One spawned child for the probe and all four legs: a fork would
    # copy this process's loop and writer threads mid-flight.
    context = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            outcome = asyncio.run(bench(pool))
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
