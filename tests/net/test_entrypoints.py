"""The two wire CLIs: ``python -m repro.net`` serves, the loadgen is a client.

The server builds its demo directory (index preload, optional WAL
creation) on the executor, off the loop thread, so the loop is live from
the first accepted connection (RA005).  The two-process run below is the
``obs-e2e`` CI lane in small: a durable, traced server in a child
process, the loadgen against it with its own trace, SIGTERM, and both
files validated and stitched into the chains that lane requires.
"""

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import repro
import repro.net.__main__ as net_main
from repro.net import loadgen
from repro.obs.schema import validate_trace_file
from repro.obs.stitch import load_records, stitch

#: The chains the ``obs-e2e`` lane asserts with ``--require-chain``.
REQUIRED_CHAINS = (
    ["net.client.request", "net.server.request", "service.shard_op", "lookup"],
    [
        "net.client.request",
        "net.server.request",
        "net.coalesce.batch",
        "service.route",
        "service.shard_op",
        "durability.wal.append",
    ],
)


class TestNetMain:
    def test_demo_directory_builds_off_loop(self, monkeypatch):
        built_on = {}
        real = net_main.demo_directory

        def spy(*args, **kwargs):
            built_on["thread"] = threading.current_thread()
            return real(*args, **kwargs)

        monkeypatch.setattr(net_main, "demo_directory", spy)

        async def drive():
            args = net_main._build_parser().parse_args(
                ["--port", "0", "--tenants", "1", "--keys", "50", "--shards", "1"]
            )
            task = asyncio.ensure_future(net_main._serve(args))
            for _ in range(500):
                if "thread" in built_on:
                    break
                await asyncio.sleep(0.01)
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

        asyncio.run(drive())
        assert built_on["thread"] is not threading.main_thread()


class TestTwoProcessRun:
    def test_traced_server_and_loadgen_stitch_into_the_required_chains(self, tmp_path, capsys):
        server_trace, client_trace = tmp_path / "server.jsonl", tmp_path / "client.jsonl"
        src = str(Path(repro.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.net",
                *"--port 0 --family adaptive --trace-ops 1 --tenants 2 --keys 200".split(),
                *["--durable", str(tmp_path / "walroot"), "--trace", str(server_trace)],
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        try:
            line = server.stdout.readline()
            assert line.startswith("serving "), line
            port = line.split(" on ")[1].split()[0].rsplit(":", 1)[1]
            code = loadgen.main(
                [
                    *["--port", port, "--rate", "200", "--duration", "0.3", "--tenants", "2"],
                    *["--keys", "200", "--get-fraction", "0.5", "--connections", "2"],
                    *["--trace", str(client_trace), "--trace-sample", "1", "--json"],
                ]
            )
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["offered"] == 60
        assert summary["ok"] == 60
        for path in (client_trace, server_trace):
            validate_trace_file(path)
        traces = stitch(load_records([str(client_trace), str(server_trace)]))
        for chain in REQUIRED_CHAINS:
            assert any(trace.has_chain(chain) for trace in traces), chain
