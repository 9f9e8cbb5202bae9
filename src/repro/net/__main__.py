"""``python -m repro.net`` — serve a demo tenant directory over TCP.

The one command-line wire server: it starts a
:class:`~repro.net.server.NetServer` over a synthetic
:func:`~repro.net.tenancy.demo_directory`, prints ``serving … on
host:port`` once it accepts connections, and runs until SIGTERM or
ctrl-c.  Drive it with ``python -m repro.net.loadgen --port PORT`` (a
client only) from another process.  ``--durable DIR`` gives every
tenant a per-shard WAL under ``DIR``; ``--trace FILE`` writes the
server's JSONL spans, which ``python -m repro.obs.stitch`` joins with
the loadgen's own ``--trace`` file.  Either stop closes the directory
and flushes the trace.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import signal
from typing import Optional, Sequence

from repro.core.budget import TenantQuota
from repro.net.server import NetServer
from repro.net.tenancy import demo_directory
from repro.obs.runtime import Telemetry

#: The server's span ids start here, so they never collide with a
#: client trace (which starts at 0) when the two files are stitched.
SPAN_ID_BASE = 1 << 32


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve a demo tenant directory over the repro.net protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411, help="0 picks a free port")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--keys", type=int, default=10_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--family", default="olc", help="index family of every tenant group (olc, adaptive, ...)"
    )
    parser.add_argument(
        "--durable",
        default=None,
        metavar="DIR",
        help="per-tenant WAL root (writes become durable and traced "
        "requests include durability.wal.append spans)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE", help="write the server's JSONL trace here"
    )
    parser.add_argument(
        "--trace-ops",
        type=int,
        default=0,
        metavar="N",
        help="index-level op span sampling under --trace (0 = off)",
    )
    parser.add_argument("--max-batch", type=int, default=128)
    parser.add_argument("--quota-ops", type=float, default=None)
    parser.add_argument("--max-inflight", type=int, default=None)
    return parser


async def _serve(args: argparse.Namespace) -> None:
    quota: Optional[TenantQuota] = None
    if args.quota_ops is not None or args.max_inflight is not None:
        quota = TenantQuota(ops_per_sec=args.quota_ops, max_inflight=args.max_inflight)
    tenants = [f"t{i}" for i in range(args.tenants)]
    loop = asyncio.get_running_loop()
    # A backgrounded job in a non-interactive shell ignores SIGINT, so
    # SIGTERM is the stop that always arrives.
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    try:
        # The demo build preloads every tenant's indexes; run it off-loop
        # so the event loop is live from the first accepted connection
        # (RA005).
        directory = await loop.run_in_executor(
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
                print(
                    f"serving {len(tenants)} tenants x {args.keys} keys ({args.family}) "
                    f"on {server.host}:{server.port} (SIGTERM or ctrl-c to stop)",
                    flush=True,
                )
                await stop.wait()
        finally:
            directory.close()
    finally:
        loop.remove_signal_handler(signal.SIGTERM)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    telemetry: Optional[Telemetry] = None
    if args.trace is not None:
        telemetry = Telemetry.with_jsonl_trace(
            args.trace, op_sample_every=args.trace_ops, span_id_base=SPAN_ID_BASE
        ).install()
    try:
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(_serve(args))
    finally:
        if telemetry is not None:
            telemetry.uninstall()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
