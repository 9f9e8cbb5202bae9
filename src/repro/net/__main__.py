"""``python -m repro.net`` — serve a demo tenant directory over TCP.

Starts a :class:`~repro.net.server.NetServer` over a synthetic
:func:`~repro.net.tenancy.demo_directory` and blocks until
interrupted.  Pair it with ``python -m repro.net.loadgen`` from
another shell, or use loadgen's ``--self-serve`` for a one-process
run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
from typing import Optional, Sequence

from repro.core.budget import TenantQuota
from repro.net.server import NetServer
from repro.net.tenancy import demo_directory


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve a demo tenant directory over the repro.net protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--keys", type=int, default=10_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=128)
    parser.add_argument("--quota-ops", type=float, default=None)
    parser.add_argument("--max-inflight", type=int, default=None)
    return parser


async def _serve(args: argparse.Namespace) -> None:
    quota: Optional[TenantQuota] = None
    if args.quota_ops is not None or args.max_inflight is not None:
        quota = TenantQuota(ops_per_sec=args.quota_ops, max_inflight=args.max_inflight)
    tenants = [f"t{i}" for i in range(args.tenants)]
    # The demo build preloads every tenant's indexes; run it off-loop so
    # the event loop is live from the first accepted connection (RA005).
    directory = await asyncio.get_running_loop().run_in_executor(
        None,
        functools.partial(
            demo_directory,
            tenants,
            keys_per_tenant=args.keys,
            num_shards=args.shards,
            quota=quota,
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
                f"serving {len(tenants)} tenants x {args.keys} keys "
                f"on {server.host}:{server.port} (ctrl-c to stop)"
            )
            await asyncio.Event().wait()
    finally:
        directory.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
