"""Open-loop load generator: Zipf tenants, Zipf keys, honest queueing.

``python -m repro.net.loadgen`` drives a :class:`~repro.net.server
.NetServer` the way a population of millions of independent users
would: arrivals follow a Poisson process at a configured *offered*
rate, each operation is stamped with its scheduled arrival time, and
**the generator never waits for a response before sending the next
request** (open loop).  Latency is measured from the scheduled arrival
to the response — so when the server falls behind, queueing delay
shows up in the tail instead of silently throttling the generator,
the classic closed-loop lie.  Requests still unanswered when the
drain window closes are *censored at the drain deadline* and included
in the latency distribution: an overloaded server cannot look fast by
just not answering.

Tenants are drawn Zipf(``tenant_alpha``) over the tenant list and keys
Zipf(``key_alpha``) over each tenant's key space (hot tenants and hot
keys, as in YCSB and the paper's Figure 11), using
:mod:`repro.workloads.distributions`.  Results aggregate into
:class:`~repro.obs.metrics.Histogram` instances with latency-scaled
buckets; p50/p99/p999 come from ``Histogram.quantile``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.net.client import NetClient
from repro.net.protocol import (
    OP_GET,
    OP_PUT,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_THROTTLED,
)
from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.obs.runtime import Telemetry
from repro.obs.slo import evaluate_checks, parse_check
from repro.workloads.distributions import zipf_indices

_STATUS_PENDING = 0
_STATUS_OK = 1
_STATUS_THROTTLED = 2
_STATUS_OVERLOADED = 3
_STATUS_ERROR = 4
_STATUS_UNANSWERED = 5


@dataclass(frozen=True)
class LoadgenConfig:
    """One open-loop run."""

    rate: float                       # offered ops/sec, aggregate
    duration: float                   # seconds of offered arrivals
    tenants: Sequence[str]
    key_space: int                    # loaded keys per tenant namespace
    tenant_alpha: float = 1.0
    key_alpha: float = 1.0
    get_fraction: float = 0.9
    connections: int = 4
    seed: int = 7
    poisson: bool = True              # exponential vs uniform inter-arrivals
    drain_timeout: float = 10.0       # wait for stragglers after last send
    trace_sample_every: int = 0       # distributed-trace sampling per client

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
        if not self.tenants:
            raise ValueError("at least one tenant required")
        if self.key_space <= 0:
            raise ValueError("key_space must be positive")
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ValueError("get_fraction must be in [0, 1]")
        if self.connections <= 0:
            raise ValueError("connections must be positive")
        if self.trace_sample_every < 0:
            raise ValueError("trace_sample_every must be >= 0")


@dataclass
class LoadgenResult:
    """Everything one run observed."""

    offered: int = 0
    ok: int = 0
    shed_throttled: int = 0
    shed_overloaded: int = 0
    errors: int = 0
    unanswered: int = 0
    send_seconds: float = 0.0
    #: Latency of accepted work: OK responses plus censored unanswered
    #: requests (sheds answer fast and are excluded — they are counted,
    #: not timed).
    latency: Histogram = field(
        default_factory=lambda: Histogram("net.loadgen.latency_seconds", LATENCY_BUCKETS)
    )
    #: Round-trip latency of shed (backpressure) responses.
    shed_latency: Histogram = field(
        default_factory=lambda: Histogram("net.loadgen.shed_seconds", LATENCY_BUCKETS)
    )

    @property
    def completed(self) -> int:
        """Requests that got any response at all."""
        return self.ok + self.shed_throttled + self.shed_overloaded + self.errors

    @property
    def shed(self) -> int:
        """Requests answered with backpressure."""
        return self.shed_throttled + self.shed_overloaded

    @property
    def shed_fraction(self) -> float:
        """Shed share of the offered load."""
        return self.shed / self.offered if self.offered else 0.0

    def summary(self) -> Dict[str, Any]:
        """One JSON-safe report (quantiles via Histogram.quantile)."""
        achieved = self.offered / self.send_seconds if self.send_seconds > 0 else 0.0
        return {
            "offered": self.offered,
            "achieved_send_rate": round(achieved, 1),
            "ok": self.ok,
            "shed_throttled": self.shed_throttled,
            "shed_overloaded": self.shed_overloaded,
            "shed_fraction": round(self.shed_fraction, 4),
            "errors": self.errors,
            "unanswered": self.unanswered,
            "latency": self.latency.summary(),
            "shed_latency": self.shed_latency.summary(),
        }

    def slo_values(self) -> Dict[str, float]:
        """The flat metric map ``--slo`` expressions evaluate against.

        Latency metrics are the accepted-work distribution, in seconds.
        """
        latency = self.latency.summary()
        offered = float(self.offered) if self.offered else 1.0
        return {
            "mean": latency["mean"],
            "p50": latency["p50"],
            "p90": latency["p90"],
            "p99": latency["p99"],
            "p999": latency["p999"],
            "shed_fraction": self.shed_fraction,
            "error_fraction": self.errors / offered,
            "unanswered_fraction": self.unanswered / offered,
            "ok_fraction": self.ok / offered,
        }


async def run_loadgen(
    host: str, port: int, config: LoadgenConfig
) -> LoadgenResult:
    """Drive one open-loop run against a running server."""
    n_ops = max(1, int(config.rate * config.duration))
    rng = np.random.default_rng(config.seed)
    arrivals = (
        np.cumsum(rng.exponential(1.0 / config.rate, n_ops))
        if config.poisson
        else (np.arange(n_ops, dtype=np.float64) + 1.0) / config.rate
    )
    tenant_ranks = zipf_indices(
        len(config.tenants), n_ops, alpha=config.tenant_alpha, rng=rng
    )
    key_ranks = zipf_indices(config.key_space, n_ops, alpha=config.key_alpha, rng=rng)
    is_get = rng.random(n_ops) < config.get_fraction
    tenants = list(config.tenants)

    clients = [
        await NetClient.connect(
            host, port, trace_sample_every=config.trace_sample_every
        )
        for _ in range(config.connections)
    ]
    result = LoadgenResult(offered=n_ops)
    statuses = np.full(n_ops, _STATUS_PENDING, dtype=np.int8)
    latencies = np.zeros(n_ops, dtype=np.float64)
    loop = asyncio.get_running_loop()

    async def fire(position: int, client: NetClient, target: float) -> None:
        tenant = tenants[int(tenant_ranks[position])]
        # Loaded keys are even (rank * 2); writes refresh the same space.
        key = int(key_ranks[position]) * 2
        try:
            if is_get[position]:
                response = await client.request(OP_GET, tenant, key=key)
            else:
                response = await client.request(
                    OP_PUT, tenant, key=key, value=position
                )
        except asyncio.CancelledError:
            raise
        except Exception:
            statuses[position] = _STATUS_ERROR
            return
        latencies[position] = loop.time() - target
        if response.status == STATUS_OK:
            statuses[position] = _STATUS_OK
        elif response.status == STATUS_THROTTLED:
            statuses[position] = _STATUS_THROTTLED
        elif response.status == STATUS_OVERLOADED:
            statuses[position] = _STATUS_OVERLOADED
        else:
            statuses[position] = _STATUS_ERROR

    tasks: List["asyncio.Task[None]"] = []
    start = loop.time()
    try:
        for position in range(n_ops):
            target = start + float(arrivals[position])
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            client = clients[position % len(clients)]
            tasks.append(asyncio.create_task(fire(position, client, target)))
        result.send_seconds = loop.time() - start
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=config.drain_timeout)
            deadline = loop.time()
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            # Censor: a request never answered inside the drain window is
            # at least (deadline - its scheduled arrival) slow.
            for position in range(n_ops):
                if statuses[position] in (_STATUS_PENDING,):
                    statuses[position] = _STATUS_UNANSWERED
                    latencies[position] = max(
                        0.0, deadline - (start + float(arrivals[position]))
                    )
    finally:
        for client in clients:
            await client.close()

    for position in range(n_ops):
        status = int(statuses[position])
        if status == _STATUS_OK:
            result.ok += 1
            result.latency.record(float(latencies[position]))
        elif status == _STATUS_UNANSWERED:
            result.unanswered += 1
            result.latency.record(float(latencies[position]))
        elif status == _STATUS_THROTTLED:
            result.shed_throttled += 1
            result.shed_latency.record(float(latencies[position]))
        elif status == _STATUS_OVERLOADED:
            result.shed_overloaded += 1
            result.shed_latency.record(float(latencies[position]))
        else:
            result.errors += 1
    return result


async def measure_capacity(
    host: str,
    port: int,
    tenants: Sequence[str],
    key_space: int,
    concurrency: int = 64,
    duration: float = 0.5,
    seed: int = 11,
) -> float:
    """Closed-loop GET throughput estimate (requests/sec).

    ``concurrency`` workers issue back-to-back requests for
    ``duration`` seconds; the aggregate completion rate approximates
    the serving capacity of the current server configuration.  The
    bench uses this to place its open-loop offered load relative to
    what the machine under test can actually do.
    """
    rng = np.random.default_rng(seed)
    loop = asyncio.get_running_loop()
    client = await NetClient.connect(host, port)
    completed = 0
    deadline = loop.time() + duration

    async def worker(worker_id: int) -> None:
        nonlocal completed
        keys = zipf_indices(key_space, 2048, alpha=1.0, rng=rng)
        tenant = tenants[worker_id % len(tenants)]
        position = 0
        while loop.time() < deadline:
            key = int(keys[position % len(keys)]) * 2
            position += 1
            try:
                await client.request(OP_GET, tenant, key=key)
            except Exception:
                return
            completed += 1

    started = loop.time()
    try:
        await asyncio.gather(*(worker(i) for i in range(concurrency)))
    finally:
        elapsed = max(1e-6, loop.time() - started)
        await client.close()
    return completed / elapsed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.loadgen",
        description="Open-loop Zipf load generator for the repro.net server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--rate", type=float, default=2000.0, help="offered ops/sec")
    parser.add_argument("--duration", type=float, default=5.0, help="seconds of arrivals")
    parser.add_argument("--tenants", type=int, default=4, help="number of tenants (t0..tN-1)")
    parser.add_argument("--keys", type=int, default=10_000, help="key space per tenant")
    parser.add_argument("--tenant-alpha", type=float, default=1.0)
    parser.add_argument("--key-alpha", type=float, default=1.0)
    parser.add_argument("--get-fraction", type=float, default=0.9)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--self-serve",
        action="store_true",
        help="start an in-process demo server (ignores --port 0 = pick free)",
    )
    parser.add_argument("--shards", type=int, default=2, help="shards per tenant group")
    parser.add_argument(
        "--family",
        default="olc",
        help="index family for --self-serve tenant groups (olc, adaptive, ...)",
    )
    parser.add_argument(
        "--durable",
        default=None,
        metavar="DIR",
        help="per-tenant WAL root for --self-serve (writes become durable "
        "and traced requests include durability.wal.append spans)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL trace here (self-serve: client+server spans "
        "share the file, so stitch sees complete chains)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="originate a distributed trace on every N-th request "
        "(0 = never; only effective with --trace)",
    )
    parser.add_argument(
        "--trace-ops",
        type=int,
        default=0,
        metavar="N",
        help="index-level op span sampling under --trace (0 = off)",
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="EXPR",
        help="fail the run (exit 1) on violation, e.g. 'p99<0.01' or "
        "'shed_fraction<=0.05' (repeatable; see repro.obs.slo)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=128, help="coalescing batch ceiling"
    )
    parser.add_argument(
        "--quota-ops",
        type=float,
        default=None,
        help="per-tenant ops/sec admission quota (default: unlimited)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-tenant inflight bound (default: unlimited)",
    )
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    return parser


async def _amain(args: argparse.Namespace) -> LoadgenResult:
    tenants = [f"t{i}" for i in range(args.tenants)]
    config = LoadgenConfig(
        rate=args.rate,
        duration=args.duration,
        tenants=tenants,
        key_space=args.keys,
        tenant_alpha=args.tenant_alpha,
        key_alpha=args.key_alpha,
        get_fraction=args.get_fraction,
        connections=args.connections,
        seed=args.seed,
        trace_sample_every=args.trace_sample if args.trace else 0,
    )
    if args.self_serve:
        from repro.core.budget import TenantQuota
        from repro.net.server import NetServer
        from repro.net.tenancy import demo_directory

        quota: Optional[TenantQuota] = None
        if args.quota_ops is not None or args.max_inflight is not None:
            quota = TenantQuota(
                ops_per_sec=args.quota_ops, max_inflight=args.max_inflight
            )
        # Build the preloaded directory off-loop: with --self-serve the
        # loadgen's own coroutines share this loop, and an inline index
        # build (plus WAL creation under --durable) would stall them
        # before the run starts (RA005).
        directory = await asyncio.get_running_loop().run_in_executor(
            None,
            functools.partial(
                demo_directory,
                tenants,
                keys_per_tenant=args.keys,
                num_shards=args.shards,
                family=args.family,
                quota=quota,
                durability_root=args.durable,
            ),
        )
        try:
            async with NetServer(
                directory,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
            ) as server:
                result = await run_loadgen(args.host, server.port, config)
        finally:
            directory.close()
    else:
        if args.port <= 0:
            raise SystemExit("--port is required without --self-serve")
        result = await run_loadgen(args.host, args.port, config)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    checks = [parse_check(expression) for expression in args.slo]
    telemetry: Optional[Telemetry] = None
    if args.trace is not None:
        telemetry = Telemetry.with_jsonl_trace(
            args.trace, op_sample_every=args.trace_ops
        ).install()
    try:
        result = asyncio.run(_amain(args))
    finally:
        if telemetry is not None:
            telemetry.uninstall()
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        latency = summary["latency"]
        print(
            f"offered {summary['offered']} @ send rate "
            f"{summary['achieved_send_rate']}/s: {summary['ok']} ok, "
            f"{summary['shed_throttled']} throttled, "
            f"{summary['shed_overloaded']} overloaded, "
            f"{summary['errors']} errors, {summary['unanswered']} unanswered"
        )
        print(
            "accepted latency  "
            f"p50 {latency['p50'] * 1000:.2f}ms  "
            f"p99 {latency['p99'] * 1000:.2f}ms  "
            f"p999 {latency['p999'] * 1000:.2f}ms"
        )
    if checks:
        violations = evaluate_checks(result.slo_values(), checks)
        for violation in violations:
            print(violation, file=sys.stderr)
        if violations:
            return 1
        print(f"slo ok: {len(checks)} check(s) passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
