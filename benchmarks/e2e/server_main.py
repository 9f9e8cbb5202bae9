"""The server child of the two wire workloads.

Built only from public constructors — ``TenantSpec`` -> ``TenantDirectory``
-> ``NetServer`` with the library defaults (``max_batch=128``,
``max_delay=1 ms``, admission on, WAL ``sync="batch"``) — over the pairs it
regenerates from ``--seed``, pinned to the first vCPU (the driver takes the
last).  It prints ``READY <port> <json>`` — the JSON is its build: raw
seconds and the quanta sampled while it ran (``calib.Staged``) — and then
answers one JSON line per command line on stdin:

``MARK``         clock, process CPU seconds and peak RSS, now
``CALIB n``      run ``n`` calibration quanta on the serving thread (the
                 driver asks while no request is in flight)
``STATS``        index size, key count, admission, replicas, WAL, managers,
                 the coalescer's window
``VERIFY``       run every router's ``verify()``
``DUMP t0 t1``   (``--trace``) per-layer totals of spans started in ``[t0, t1)``
``QUIT``         stop serving and exit 0; EOF on stdin does the same

With ``--trace`` it installs the timing wrappers of :mod:`spans` around the
public callables of every layer on the request path before serving.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import calib  # noqa: E402
import opstream  # noqa: E402
import spans  # noqa: E402
from inproc import SERVICE_WRAPPED  # noqa: E402

import repro.net.server as net_server  # noqa: E402
from repro.bptree.hybrid import AdaptiveBPlusTree  # noqa: E402
from repro.bptree.leaves import LeafEncoding  # noqa: E402
from repro.core.budget import ResourceArbiter  # noqa: E402
from repro.core.manager import AdaptationManager  # noqa: E402
from repro.durability.log import DurableLog  # noqa: E402
from repro.net.coalescer import Coalescer  # noqa: E402
from repro.net.server import NetServer  # noqa: E402
from repro.net.tenancy import TenantDirectory, TenantSpec  # noqa: E402
from repro.replication.replica_set import ReplicatedShard  # noqa: E402

SHARDS = 4

#: Per workload: index family and replication factor.
SHAPES = {"net_read": ("olc", 1), "net_write": ("adaptive", 2)}

#: Layers wrapped in a traced server, on top of the service layers that
#: ``router_batch`` wraps in-process.
SERVER_WRAPPED = {
    **SERVICE_WRAPPED,
    (net_server, "decode_request"): ("net.protocol.decode", None),
    (net_server, "encode_response"): ("net.protocol.encode", None),
    (net_server, "encode_frame"): ("net.protocol.encode", None),
    (ResourceArbiter, "admit"): ("core.budget.admit", None),
    (ResourceArbiter, "release"): ("core.budget.admit", None),
    (Coalescer, "get"): ("net.coalescer.get", None),
    (Coalescer, "put"): ("net.coalescer.put", None),
    (ReplicatedShard, "get_many"): ("replication.read_route", 1),
    (ReplicatedShard, "scan"): ("replication.read_route", None),
    (ReplicatedShard, "put_many"): ("replication.put_fanout", 1),
    (DurableLog, "append_put_many"): ("durability.wal.append", 1),
    (DurableLog, "append_put"): ("durability.wal.append", None),
    (AdaptiveBPlusTree, "lookup"): ("bptree.hybrid.lookup", None),
    (AdaptiveBPlusTree, "lookup_many"): ("bptree.hybrid.lookup", 1),
    (AdaptiveBPlusTree, "insert"): ("bptree.hybrid.insert", None),
    (AdaptiveBPlusTree, "insert_many"): ("bptree.hybrid.insert", 1),
    (AdaptiveBPlusTree, "scan"): ("bptree.hybrid.scan", None),
    (AdaptationManager, "run_adaptation"): ("core.manager.adapt", None),
}


def mark() -> Dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "t": time.perf_counter(),
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
    }


def _indexes(directory: TenantDirectory) -> List[Any]:
    """Every index instance behind the tenant (each replica's own)."""
    found = []
    for shard in directory.router_for(opstream.TENANT).table.shards:
        replicas = getattr(shard, "replicas", None)
        if replicas is None:
            found.append(shard.index)
        else:
            found.extend(replica.shard.index for replica in replicas)
    return found


def stats(directory: TenantDirectory) -> Dict[str, Any]:
    router = directory.router_for(opstream.TENANT)
    shards = router.table.shards
    admission = directory.arbiter.describe()["tenants"][opstream.TENANT]
    replicas = [replica for shard in shards for replica in getattr(shard, "replicas", [])]
    logs = [replica.shard.durable_log for replica in replicas] or [
        shard.durable_log for shard in shards
    ]
    logs = [log for log in logs if log is not None]
    leaves: Dict[Any, int] = {}
    phases = migrations = 0
    for index in _indexes(directory):
        manager = getattr(index, "manager", None)
        if manager is None:
            continue
        phases += manager.counters.adaptation_phases
        migrations += manager.counters.expansions + manager.counters.compactions
        for encoding, count in index.encoding_counts().items():
            leaves[encoding] = leaves.get(encoding, 0) + count
    return {
        "size_bytes": sum(shard.size_bytes() for shard in shards),
        "num_keys": len(router),
        "admitted": admission["admitted"],
        "shed": admission["throttled"] + admission["overloaded"],
        "replicas_down": sum(1 for replica in replicas if replica.down),
        "wal_bytes": sum(log.wal_size_bytes() for log in logs),
        "wal_sync": logs[0].wal.sync if logs else "",
        "manager_phases": phases,
        "manager_migrations": migrations,
        "expanded_leaf_frac": leaves.get(LeafEncoding.GAPPED, 0) / max(1, sum(leaves.values())),
    }


def verify(directory: TenantDirectory) -> Dict[str, Any]:
    try:
        for tenant in directory.tenants():
            directory.router_for(tenant).verify()
    except Exception as error:  # noqa: BLE001 - reported to the driver as a finding
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}
    return {"ok": True, "error": ""}


def dump(recorder: spans.Recorder, since: float, until: float, max_batch: int) -> Dict[str, Any]:
    """Layer totals plus what the coalescer did, for spans in ``[since, until)``."""
    recorded = {
        span_id: span
        for span_id, span in recorder.spans().items()
        if since <= span.start < until
    }
    totals = spans.aggregate(
        recorded,
        inner_overhead=recorder.inner_overhead,
        outer_overhead=recorder.outer_overhead,
    )
    calls, caused = 0, 0
    dwell = batches = timer_flushes = entries = 0
    for entry_name, batch_name in (
        ("net.coalescer.get", "service.router.get_many"),
        ("net.coalescer.put", "service.router.put_many"),
    ):
        # The queue is FIFO per kind: batch k serves the next len(keys) entries.
        arrivals = sorted(s.start for s in recorded.values() if s.name == entry_name)
        served = sorted(
            (s.start, s.units) for s in recorded.values() if s.name == batch_name
        )
        position = 0
        for started, size in served:
            for arrived in arrivals[position : position + size]:
                dwell += max(0.0, started - arrived)
                entries += 1
            position += size
            batches += 1
            timer_flushes += size < max_batch
        batch_calls, batch_caused = spans.child_counts(recorded, batch_name)
        calls += batch_calls
        caused += batch_caused
    return {
        "layers": {
            name: {"count": t.count, "units": t.units, "busy": t.busy, "wait": t.wait}
            for name, t in totals.items()
        },
        "dwell_s": dwell,
        "entries": entries,
        "batches": batches,
        "timer_flushes": timer_flushes,
        "fanout_calls": calls,
        "fanout_children": caused,
    }


async def serve(
    directory: TenantDirectory, recorder: Optional[spans.Recorder], build: Dict[str, Any]
) -> None:
    server = NetServer(directory)
    await server.start()
    print(f"READY {server.port} {json.dumps(build)}", flush=True)
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            words = line.split()
            if not words or words[0] == "QUIT":
                break
            if words[0] == "MARK":
                reply: Dict[str, Any] = mark()
            elif words[0] == "CALIB":
                reply = {"quanta": calib.quanta(int(words[1]))}
            elif words[0] == "STATS":
                reply = await loop.run_in_executor(None, stats, directory)
                reply["max_delay_s"] = server.coalescer.max_delay
            elif words[0] == "VERIFY":
                reply = await loop.run_in_executor(None, verify, directory)
            elif words[0] == "DUMP" and recorder is not None:
                reply = dump(
                    recorder, float(words[1]), float(words[2]), server.coalescer.max_batch
                )
            else:
                reply = {"error": f"unknown command {line!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keys", type=int, required=True)
    parser.add_argument("--durable", default=None, help="WAL/snapshot root (net_write)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    calib.pin(0)
    family, replication = SHAPES[args.workload]
    staged = calib.Staged()
    _, pairs = staged.stage(lambda: opstream.int_data(args.seed, args.keys))
    spec = TenantSpec(
        name=opstream.TENANT,
        num_shards=SHARDS,
        family=family,
        pairs=pairs,
        replication_factor=replication,
    )
    directory = staged.stage(lambda: TenantDirectory([spec], durability_root=args.durable))
    build = {"raw_s": staged.raw_seconds, "quanta": staged.samples}
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.calibrate()
        recorder.patch_all(SERVER_WRAPPED)
        recorder.patch_executor()
    gc.collect()
    gc.freeze()
    try:
        asyncio.run(serve(directory, recorder, build))
    finally:
        directory.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
