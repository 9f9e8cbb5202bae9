"""The two wire workloads: a thin closed-loop driver against a server child.

The load generator is this single-threaded process with two plain
sockets and **pre-encoded frames**: ``NetClient`` saturates its own core
near 5k req/s, which would make the generator, not the server, the
thing measured.  While timing, a reply costs the driver one
``decode_frame`` and a req-id match; bodies are kept and fully decoded
and checked afterwards (``check.check_wire``).

Two phases, both closed loop with a fixed op count:

``lat``  16 callers over 2 connections, each sends its next request when
         its reply arrives — the regime of ``get_p50_ms``;
``cap``  256 requests outstanding over 2 connections — the regime of
         ``ops_per_s`` (the coalescer sees full batches).

The server child is pinned to the first vCPU and this driver to the last,
so the generator can never take the server's CPU.  Every slice drains
completely and then the *server* runs the calibration quanta of the gap
(``CALIB``): the server's vCPU sets the pace of a phase, and the driver's
vCPU says little about it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import select
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calib
import check
import opstream
from inproc import SERVICE_BUSY_METRICS, SIDE_CALLS
from opstream import GET, PUT, SCAN, TENANT

from repro.durability.manager import DurabilityManager
from repro.net.client import NetClient
from repro.net.protocol import (
    OP_GET,
    OP_PUT,
    OP_SCAN,
    Request,
    decode_frame,
    encode_frame,
    encode_request,
)
from repro.service.router import ShardRouter

HERE = Path(__file__).resolve().parent

CONNECTIONS = 2
LAT_WINDOW = 16
CAP_WINDOW = 256
LAT_SLICES = 60
#: Fewer, longer slices: each one ramps 256 requests up and drains them.
CAP_SLICES = 30

REPLY_TIMEOUT_S = 20.0
_REQ_ID = struct.Struct("<Q")
_OPCODE = {GET: OP_GET, PUT: OP_PUT, SCAN: OP_SCAN}

#: Server-side layers, as ``{metric: layer}`` busy self time per op
#: (``net.coalescer.enqueue`` is the sum of the server's get and put spans).
SERVER_BUSY_METRICS = {
    **SERVICE_BUSY_METRICS,
    "net.protocol.decode_us": "net.protocol.decode",
    "net.protocol.encode_us": "net.protocol.encode",
    "core.budget.admit_us": "core.budget.admit",
    "net.coalescer.enqueue_us": "net.coalescer.enqueue",
    "replication.read_route_self_us": "replication.read_route",
    "replication.put_fanout_self_us": "replication.put_fanout",
    "durability.wal.append_us": "durability.wal.append",
    "bptree.hybrid.lookup_us": "bptree.hybrid.lookup",
    "bptree.hybrid.insert_us": "bptree.hybrid.insert",
    "bptree.hybrid.scan_us": "bptree.hybrid.scan",
    "core.manager.adapt_us": "core.manager.adapt",
    "trace.overhead_us": "trace.overhead",
}


class ServerProcess:
    """The server child and its one-line-JSON control channel."""

    def __init__(self, workload: str, seed: int, keys: int, durable: Optional[Path], trace: bool):
        command = [
            sys.executable,
            str(HERE / "server_main.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--keys", str(keys),
        ]
        if durable is not None:
            command += ["--durable", str(durable)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        self.port = 0
        self.build_seconds = 0.0  # normalised by the child's own quanta

    def wait_ready(self) -> None:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"server child did not come up (said {line!r})")
        _, port, build = line.split(maxsplit=2)
        self.port = int(port)
        build = json.loads(build)
        self.build_seconds = build["raw_s"] / calib.factor_of(build["quanta"])

    def calibrate(self, count: int) -> List[float]:
        """``count`` quanta on the server's serving thread (call it when idle)."""
        return self.command(f"CALIB {count}")["quanta"]

    def command(self, line: str) -> Dict[str, Any]:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError(f"server child died during {line!r}")
        return json.loads(reply)

    def quit(self) -> None:
        """Ask for a clean exit, then make sure the child has ended."""
        if self.process.poll() is None and self.process.stdin is not None:
            try:
                self.process.stdin.write("QUIT\n")
                self.process.stdin.close()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL (the crash of ``net_write``; also the last-resort cleanup)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()


class WireDriver:
    """Two blocking sockets, pre-encoded frames, a window of requests in flight."""

    def __init__(self, port: int, frames: List[bytes]) -> None:
        self.frames = frames
        self.sent = [0.0] * len(frames)
        self.latencies = [0.0] * len(frames)
        self.bodies: List[Optional[bytes]] = [None] * len(frames)
        self.wire_bytes = 0
        self.sockets = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sockets.append(sock)
        self._tails = {sock: b"" for sock in self.sockets}

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()

    def _send(self, sock: socket.socket, lo: int, hi: int) -> None:
        chunk = b"".join(self.frames[lo:hi])
        now = time.perf_counter()
        self.sent[lo:hi] = [now] * (hi - lo)
        sock.sendall(chunk)
        self.wire_bytes += len(chunk)

    def run(self, lo: int, hi: int, window: int) -> None:
        """Send ops ``[lo, hi)`` keeping ``window`` in flight; return when all replied.

        A reply on a connection releases the next request on that same
        connection — each of the ``window`` callers waits for its own reply.
        """
        clock = time.perf_counter
        latencies, bodies, sent, tails = self.latencies, self.bodies, self.sent, self._tails
        next_op = lo
        for position, sock in enumerate(self.sockets):
            share = window // CONNECTIONS + (position < window % CONNECTIONS)
            upto = min(hi, next_op + share)
            self._send(sock, next_op, upto)
            next_op = upto
        outstanding = next_op - lo
        while outstanding:
            readable, _, _ = select.select(self.sockets, [], [], REPLY_TIMEOUT_S)
            if not readable:
                raise RuntimeError(f"{outstanding} requests unanswered after {REPLY_TIMEOUT_S}s")
            for sock in readable:
                data = sock.recv(1 << 18)
                if not data:
                    raise RuntimeError("server closed the connection")
                now = clock()
                self.wire_bytes += len(data)
                buffer = memoryview(tails[sock] + data)
                offset = replies = 0
                while True:
                    frame = decode_frame(buffer[offset:])
                    if frame is None:
                        break
                    body, used = frame
                    offset += used
                    op = _REQ_ID.unpack_from(body)[0] - 1
                    if not lo <= op < hi or bodies[op] is not None:
                        raise RuntimeError(f"reply for request {op} that is not in flight")
                    latencies[op] = now - sent[op]
                    bodies[op] = body
                    replies += 1
                tails[sock] = bytes(buffer[offset:])
                outstanding -= replies
                upto = min(hi, next_op + replies)
                if upto > next_op:
                    self._send(sock, next_op, upto)
                    outstanding += upto - next_op
                    next_op = upto


def encode_frames(stream: opstream.WireStream) -> List[bytes]:
    """One ready-to-send frame per op; request ids are op index + 1."""
    frames = []
    for op, (kind, key, value) in enumerate(zip(stream.kinds, stream.keys, stream.values)):
        request = Request(
            req_id=op + 1,
            op=_OPCODE[kind],
            tenant=TENANT,
            key=key,
            value=value if kind == PUT else None,
            count=opstream.WIRE_SCAN_COUNT if kind == SCAN else 0,
        )
        frames.append(encode_frame(encode_request(request)))
    return frames


class Wire:
    """Shared set-up, phases and traced-run plumbing of the wire workloads."""

    name = ""
    durable = False

    def __init__(
        self, seed: int, ops: Tuple[int, int], keys: int, slice_share: float = 1.0
    ) -> None:
        self.seed, (lat_ops, cap_ops), self.num_keys = seed, ops, keys
        self.lat_range = (0, lat_ops)
        self.cap_range = (lat_ops, lat_ops + cap_ops)
        self.lat_slices = max(8, int(LAT_SLICES * slice_share))
        # A slice much shorter than a few windows would measure ramp-up only.
        self.cap_slices = max(
            4, min(int(CAP_SLICES * slice_share), cap_ops // (4 * CAP_WINDOW))
        )
        self.bounds = calib.phase_bounds(*self.lat_range, self.lat_slices) + calib.phase_bounds(
            *self.cap_range, self.cap_slices
        )
        self.server: Optional[ServerProcess] = None
        self.driver: Optional[WireDriver] = None
        self.work_dir: Optional[Path] = None
        self.traced = False
        self.marks: Dict[str, Dict[str, float]] = {}
        self.cap_cpu = self.cap_wall = 0.0
        self.setup_seconds = 0.0

    def make_stream(self, keys: Any) -> opstream.WireStream:
        raise NotImplementedError

    def exact_counts(self) -> Dict[str, int]:
        """Nothing here repeats exactly: batch boundaries depend on timing."""
        return {}

    def notes(self) -> List[str]:
        """Lines for the printed table that are not metrics."""
        return []

    def layers_after_verify(self) -> Dict[str, float]:
        """Per-layer numbers that only exist once :meth:`verify` has run."""
        return {}

    # -- set-up -----------------------------------------------------------
    def setup(self, traced: bool = False) -> None:
        """The child's build, then the driver's: one after the other, so that
        ``setup_s`` is the sum of two parts each normalised on its own vCPU."""
        self.traced = traced
        if self.durable:
            # Inside the checkout (the benchmark writes nowhere else), fresh
            # per run, removed by close().
            self.work_dir = Path(tempfile.mkdtemp(prefix=f".work-{self.name}-", dir=HERE))
        self.server = ServerProcess(self.name, self.seed, self.num_keys, self.work_dir, traced)
        self.server.wait_ready()
        staged = calib.Staged()
        keys, self.pairs = staged.stage(lambda: opstream.int_data(self.seed, self.num_keys))
        self.stream = staged.stage(lambda: self.make_stream(keys))
        frames = staged.stage(lambda: encode_frames(self.stream))
        self.driver = WireDriver(self.server.port, frames)
        self.setup_seconds = self.server.build_seconds + staged.normalised_seconds

    def close(self) -> None:
        """Stop the child, close sockets, remove scratch files (idempotent)."""
        if self.driver is not None:
            self.driver.close()
            self.driver = None
        if self.server is not None:
            self.server.quit()
            self.server = None
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None

    # -- phases -----------------------------------------------------------
    def _phase(self, name: str, bounds: Tuple[int, int], slices: int, window: int) -> calib.Phase:
        assert self.server is not None and self.driver is not None
        server, driver = self.server, self.driver

        def run_slice(lo: int, hi: int) -> None:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            driver.run(lo, hi, window)
            if name == "cap":
                self.cap_cpu += time.process_time() - cpu0
                self.cap_wall += time.perf_counter() - wall0

        def after_warmup() -> None:
            self.marks[name + ".start"] = server.command("MARK")

        phase = calib.measure_phase(
            *bounds, slices, run_slice, after_warmup=after_warmup, calibrate=server.calibrate
        )
        self.marks[name + ".end"] = server.command("MARK")
        return phase

    def measure(self) -> Dict[str, calib.Phase]:
        assert self.server is not None
        gc.collect()
        gc.freeze()
        phases = {
            "lat": self._phase("lat", self.lat_range, self.lat_slices, LAT_WINDOW),
            "cap": self._phase("cap", self.cap_range, self.cap_slices, CAP_WINDOW),
        }
        self.stats = self.server.command("STATS")
        return phases

    # -- results ----------------------------------------------------------
    def end_to_end(self, phases: Dict[str, calib.Phase]) -> Dict[str, float]:
        assert self.driver is not None
        lat, cap = phases["lat"], phases["cap"]
        # A round trip in ``lat`` waits out the coalescer's window (a timer,
        # the library's 1 ms) and is CPU for the rest: only the rest scales.
        p50, self.get_samples = lat.quantile_ms(
            self.driver.latencies, self.stream.kinds, GET, 0.50, self.stats["max_delay_s"]
        )
        return {
            "ops_per_s": cap.ops / cap.normalised_seconds,
            "get_p50_ms": p50,
            "bytes_per_key": self.stats["size_bytes"] / self.stats["num_keys"],
            "rss_peak_mb": self.marks["cap.end"]["rss_kib"] / 1024.0,
        }

    def driver_metrics(self, phases: Dict[str, calib.Phase]) -> Dict[str, float]:
        assert self.driver is not None
        lat, cap = phases["lat"], phases["cap"]
        latencies, kinds = self.driver.latencies, self.stream.kinds
        window = self.stats["max_delay_s"]
        return {
            "driver.calib_ms": cap.quantum_mean * 1e3,
            "driver.cpu_frac": self.cap_cpu / self.cap_wall,
            "driver.put_p50_ms": lat.quantile_ms(latencies, kinds, PUT, 0.50, window)[0],
            "driver.scan_p50_ms": lat.quantile_ms(latencies, kinds, SCAN, 0.50, window)[0],
            "driver.get_p99_ms": lat.quantile_ms(latencies, kinds, GET, 0.99, window)[0],
            "driver.raw_ops_per_s": cap.ops / cap.raw_seconds,
            "driver.calib_unstable_segments": float(lat.unstable_slices + cap.unstable_slices),
        }

    def layers(self, phases: Dict[str, calib.Phase]) -> Dict[str, float]:
        """Per-layer metrics of a traced pass.

        Busy self times and server CPU are per completed op of the ``cap``
        phase; coalescer dwell is per request of the ``lat`` phase.
        """
        assert self.server is not None and self.driver is not None
        marks, cap_ops = self.marks, phases["cap"].ops
        cap = self.server.command(f"DUMP {marks['cap.start']['t']} {marks['cap.end']['t']}")
        lat = self.server.command(f"DUMP {marks['lat.start']['t']} {marks['lat.end']['t']}")
        busy = {name: layer["busy"] for name, layer in cap["layers"].items()}
        busy["net.coalescer.enqueue"] = busy.pop("net.coalescer.get", 0.0) + busy.pop(
            "net.coalescer.put", 0.0
        )
        found = {
            metric: busy.get(layer, 0.0) / cap_ops * 1e6
            for metric, layer in SERVER_BUSY_METRICS.items()
        }
        cpu_per_op = (marks["cap.end"]["cpu"] - marks["cap.start"]["cpu"]) / cap_ops * 1e6
        found["net.server.cpu_us_per_op"] = cpu_per_op
        found["net.server.residual_us"] = cpu_per_op - sum(busy.values()) / cap_ops * 1e6
        found["net.coalescer.dwell_us"] = lat["dwell_s"] / max(1, lat["entries"]) * 1e6
        found["net.coalescer.batch_mean"] = cap["entries"] / max(1, cap["batches"])
        found["net.coalescer.timer_flush_frac"] = cap["timer_flushes"] / max(1, cap["batches"])
        found["service.router.fanout_mean"] = cap["fanout_children"] / max(1, cap["fanout_calls"])
        found["net.protocol.wire_bytes_per_op"] = self.driver.wire_bytes / len(self.stream)
        found["core.budget.shed_frac"] = self.stats["shed"] / max(
            1, self.stats["shed"] + self.stats["admitted"]
        )
        found["replication.replicas_down"] = float(self.stats["replicas_down"])
        found["bptree.hybrid.expanded_leaf_frac"] = self.stats["expanded_leaf_frac"]
        found["core.manager.phases"] = float(self.stats["manager_phases"])
        found["core.manager.migrations"] = float(self.stats["manager_migrations"])
        wal = cap["layers"].get("durability.wal.append")
        puts = sum(1 for kind in self.stream.kinds if kind == PUT)
        if wal is not None:
            cap_puts = cap["layers"]["service.router.put_many"]["units"]
            found["durability.wal.fsync_wait_us"] = wal["wait"] / cap_ops * 1e6
            found["durability.wal.records_per_append"] = wal["units"] / wal["count"]
            # One fsync per append under the "batch" policy, none under "none".
            fsyncs = wal["count"] if self.stats["wal_sync"] == "batch" else 0
            found["durability.wal.fsyncs_per_put"] = fsyncs / max(1, cap_puts)
            found["durability.wal.bytes_per_put"] = self.stats["wal_bytes"] / max(1, puts)
        found["net.client.request_us"] = asyncio.run(self._client_probe())
        return found

    async def _client_probe(self) -> float:
        """Driver CPU per ``NetClient.get`` — what the library client would cost."""
        assert self.server is not None
        keys = [key for key, _ in self.pairs[:: max(1, len(self.pairs) // SIDE_CALLS)]]
        client = await NetClient.connect("127.0.0.1", self.server.port)
        try:
            started = time.process_time()
            for offset in range(0, len(keys), 64):
                await asyncio.gather(
                    *(client.get(TENANT, key) for key in keys[offset : offset + 64])
                )
            return (time.process_time() - started) / len(keys) * 1e6
        finally:
            await client.close()

    def verify(self, verdict: check.Verdict, corrupt: Optional[int]) -> None:
        assert self.driver is not None
        self.model = check.Model(self.pairs)
        check.check_wire(
            self.stream, self.driver.bodies, self.bounds, self.model, verdict, corrupt
        )
        self.verify_server(verdict)

    def verify_server(self, verdict: check.Verdict) -> None:
        assert self.server is not None
        verdict.attempted += 1
        reply = self.server.command("VERIFY")
        if not reply["ok"]:
            verdict.fail(f"server verify(): {reply['error']}")


class NetRead(Wire):
    """One ``olc`` tenant, 4 hash shards, read-only: the net/dispatch stack."""

    name = "net_read"

    def make_stream(self, keys: Any) -> opstream.WireStream:
        return opstream.net_read_stream(self.seed, keys, self.cap_range[1])


class NetWrite(Wire):
    """``adaptive`` x2 replicas, durable: the same stack through the write path."""

    name = "net_write"
    durable = True

    def make_stream(self, keys: Any) -> opstream.WireStream:
        return opstream.net_write_stream(self.seed, keys, self.bounds)

    def verify_server(self, verdict: check.Verdict) -> None:
        """Crash the server, recover its directory here, read every acked PUT back."""
        assert self.server is not None and self.work_dir is not None
        self.server.kill()
        started = time.perf_counter()
        router = ShardRouter.recover(DurabilityManager(self.work_dir / TENANT), family="adaptive")
        self.recover_s = time.perf_counter() - started
        self.recover_frames = router.last_recovery["frames_replayed"]
        try:
            written = {
                key: self.model.values[key]
                for key, kind in zip(self.stream.keys, self.stream.kinds)
                if kind == PUT
            }
            check.check_readback(router, written, verdict)
            verdict.run_verify("recovered ShardRouter", router.verify)
        finally:
            router.close()

    def notes(self) -> List[str]:
        return [f"WAL sync policy: {self.stats['wal_sync']} (library default)"]

    def layers_after_verify(self) -> Dict[str, float]:
        return {
            "durability.recover_s": self.recover_s,
            "durability.recover_frames": float(self.recover_frames),
        }


WORKLOADS = {cls.name: cls for cls in (NetRead, NetWrite)}
