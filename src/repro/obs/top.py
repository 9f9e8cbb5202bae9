"""Live ops console over the STATS opcode.

``repro.obs.top`` is the operator's view of one running
:class:`~repro.net.server.NetServer`: it polls the structured STATS
snapshot over a plain :class:`~repro.net.client.NetClient` connection
and renders per-tenant admission/shed rates, the coalescer's batching,
per-shard encoding mix / migrations / WAL lag, and latency histogram
summaries::

    python -m repro.obs.top --host 127.0.0.1 --port 9344          # refresh loop
    python -m repro.obs.top --port 9344 --once                    # one frame
    python -m repro.obs.top --port 9344 --once --json             # raw snapshot

The rendering is a pure function over the snapshot dict
(:func:`render_snapshot`), so tests cover the console without a server.
Shed *rates* are computed between refreshes from the cumulative arbiter
counters; the first frame shows lifetime fractions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.net.client import NetClient

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def _fmt_ms(seconds: object) -> str:
    if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
        return "-"
    return f"{seconds * 1000.0:.2f}ms"


def _fmt_plain(value: object) -> str:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "-"
    return f"{value:g}"


def _tenant_rates(
    arbiter: Mapping[str, Any],
    previous: Optional[Mapping[str, Any]],
) -> List[Tuple[str, Dict[str, Any]]]:
    """Per-tenant admission rows with interval shed rates."""
    rows: List[Tuple[str, Dict[str, Any]]] = []
    tenants = arbiter.get("tenants", {})
    prev_tenants = (previous or {}).get("tenants", {})
    for name, state in sorted(tenants.items()):
        admitted = float(state.get("admitted", 0))
        shed = float(state.get("throttled", 0)) + float(state.get("overloaded", 0))
        prev = prev_tenants.get(name, {})
        d_admitted = admitted - float(prev.get("admitted", 0))
        d_shed = shed - (
            float(prev.get("throttled", 0)) + float(prev.get("overloaded", 0))
        )
        d_total = d_admitted + d_shed
        rows.append(
            (
                name,
                {
                    "inflight": state.get("inflight", 0),
                    "admitted": int(admitted),
                    "shed": int(shed),
                    "shed_rate": (d_shed / d_total) if d_total > 0 else 0.0,
                },
            )
        )
    return rows


def _shard_row(
    label: str,
    family: str,
    info: Mapping[str, Any],
    census: Mapping[str, Any],
) -> str:
    """One shard-table line (shared by plain shards and replica rows).

    For replica rows ``family`` carries the divergence profile and
    ``info`` is the per-replica stats dict, so the console shows each
    copy's own encoding mix, routed reads, and WAL lag instead of an
    aggregate.
    """
    mix = (
        " ".join(
            f"{encoding}:{entry.get('count', entry) if isinstance(entry, Mapping) else entry}"
            for encoding, entry in sorted(census.items())
        )
        or "-"
    )
    lag = info.get("wal_lag")
    return (
        f"  {label:<16} "
        f"{family:<16} "
        f"{info.get('num_keys', 0):>9} {info.get('ops', info.get('reads_routed', 0)):>9} "
        f"{info.get('migrations', 0):>5} "
        f"{'-' if lag is None else lag:>8}  {mix}"
    )


def render_snapshot(
    stats: Mapping[str, Any],
    previous: Optional[Mapping[str, Any]] = None,
) -> str:
    """One console frame from a STATS snapshot (pure; fully testable)."""
    lines: List[str] = []
    server = stats.get("server", {})
    coalescer = stats.get("coalescer", {})
    lines.append(
        "server: "
        f"conns={server.get('connections', '-')} "
        f"requests={server.get('requests', '-')} "
        f"sheds={server.get('sheds', '-')} "
        f"proto_errors={server.get('protocol_errors', '-')} "
        f"admission={'on' if server.get('admission') else 'off'}"
    )
    flushed = max(1, int(coalescer.get("batches_flushed", 0) or 0))
    coalesced = int(coalescer.get("requests_coalesced", 0) or 0)
    lines.append(
        "coalescer: "
        f"enabled={coalescer.get('enabled', '-')} "
        f"max_batch={coalescer.get('max_batch', '-')} "
        f"batches={coalescer.get('batches_flushed', '-')} "
        f"avg_batch={coalesced / flushed:.2f}"
    )

    lines.append("")
    lines.append("tenants:")
    lines.append(
        f"  {'name':<12} {'shards':>6} {'keys':>10} {'bytes':>10} "
        f"{'inflight':>8} {'admitted':>9} {'shed':>7} {'shed%':>6}"
    )
    tenants = stats.get("tenants", {})
    previous_arbiter = (previous or {}).get("arbiter")
    rates = dict(_tenant_rates(stats.get("arbiter", {}), previous_arbiter))
    for name, info in sorted(tenants.items()):
        rate = rates.get(name, {})
        lines.append(
            f"  {name:<12} {info.get('num_shards', 0):>6} "
            f"{info.get('num_keys', 0):>10} "
            f"{_fmt_bytes(float(info.get('size_bytes', 0))):>10} "
            f"{rate.get('inflight', 0):>8} {rate.get('admitted', 0):>9} "
            f"{rate.get('shed', 0):>7} {rate.get('shed_rate', 0.0) * 100:>5.1f}%"
        )

    shards = stats.get("shards", {})
    if shards:
        lines.append("")
        lines.append("shards:")
        lines.append(
            f"  {'tenant/shard':<16} {'family':<16} {'keys':>9} {'ops':>9} "
            f"{'migr':>5} {'wal_lag':>8}  encodings"
        )
        for tenant, shard_list in sorted(shards.items()):
            for shard in shard_list:
                shard_label = tenant + "/" + str(shard.get("shard_id", "?"))
                replicas = shard.get("replicas") or []
                if len(replicas) > 1:
                    # A replicated shard renders one row per replica —
                    # the whole point of divergence is that the copies
                    # differ, so an aggregate row would hide the signal.
                    for replica in replicas:
                        label = f"{shard_label}.r{replica.get('replica', '?')}"
                        profile = str(replica.get("profile", "-"))
                        if replica.get("down"):
                            profile += "!"
                        lines.append(
                            _shard_row(
                                label,
                                profile,
                                replica,
                                replica.get("encoding_census", {}) or {},
                            )
                        )
                    continue
                lines.append(
                    _shard_row(
                        shard_label,
                        str(shard.get("family", "-")),
                        shard,
                        shard.get("encoding_census", {}) or {},
                    )
                )

    latency = stats.get("latency", {})
    if latency:
        lines.append("")
        lines.append("latency:")
        lines.append(
            f"  {'histogram':<28} {'count':>9} {'mean':>9} {'p50':>9} "
            f"{'p99':>9} {'p999':>9}"
        )
        for name, summary in sorted(latency.items()):
            # Only *_seconds histograms are durations; the rest (batch
            # sizes etc.) render as plain numbers.
            fmt = _fmt_ms if name.endswith("_seconds") else _fmt_plain
            lines.append(
                f"  {name:<28} {int(summary.get('count', 0)):>9} "
                f"{fmt(summary.get('mean')):>9} {fmt(summary.get('p50')):>9} "
                f"{fmt(summary.get('p99')):>9} {fmt(summary.get('p999')):>9}"
            )
    return "\n".join(lines)


async def run(
    host: str,
    port: int,
    interval: float,
    once: bool,
    as_json: bool,
    frames: Optional[int] = None,
) -> int:
    """Poll STATS and render frames until interrupted (or ``frames``)."""
    client = await NetClient.connect(host, port)
    previous: Optional[Dict[str, Any]] = None
    shown = 0
    try:
        while True:
            stats = await client.stats()
            if as_json:
                print(json.dumps(stats, indent=2, sort_keys=True))
            else:
                frame = render_snapshot(stats, previous)
                if once or frames is not None:
                    print(frame)
                else:  # pragma: no cover - interactive path
                    print(_CLEAR + frame, flush=True)
            previous = stats
            shown += 1
            if once or (frames is not None and shown >= frames):
                return 0
            await asyncio.sleep(interval)
    finally:
        await client.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live ops console over a NetServer's STATS opcode.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    parser.add_argument("--once", action="store_true", help="one frame, then exit")
    parser.add_argument(
        "--json", action="store_true", help="print the raw snapshot as JSON"
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="exit after N refreshes (testing/smoke)",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be positive")
    try:
        return asyncio.run(
            run(args.host, args.port, args.interval, args.once, args.json, args.frames)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0
    except (ConnectionError, OSError) as error:
        print(f"TOP FAILED: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
