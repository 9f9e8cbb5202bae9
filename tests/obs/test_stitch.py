"""Stitching per-process JSONL traces into per-request trees."""

import json

import pytest

from repro.obs.sinks import InMemoryTraceSink
from repro.obs.stitch import StitchError, load_records, main, render_json, render_text, stitch
from repro.obs.tracing import Tracer


def two_process_records():
    """A client file and a server file for one traced GET."""
    client = Tracer(client_sink := InMemoryTraceSink(), span_id_base=0)
    server = Tracer(server_sink := InMemoryTraceSink(), span_id_base=1 << 32)

    root = client.start_remote("net.client.request", trace_id=77, op="GET")
    remote = server.start_remote(
        "net.server.request", trace_id=77, remote_parent_id=root.span_id
    )
    with server.adopt(remote):
        route = server.start("service.route", elapsed_s=0.002)
        shard = server.start("service.shard_op", elapsed_s=0.001)
        server.end(shard)
        server.end(route)
    server.finish(remote, elapsed_s=0.004)
    client.finish(root, elapsed_s=0.005)

    for record in client_sink.records:
        record["_file"] = "client.jsonl"
    for record in server_sink.records:
        record["_file"] = "server.jsonl"
    return client_sink.records + server_sink.records


class TestStitch:
    def test_cross_file_remote_link_resolves(self):
        (trace,) = stitch(two_process_records())
        assert trace.trace_id == 77
        assert trace.orphans == 0
        (root,) = trace.roots
        assert root.name == "net.client.request"
        names = [node.name for _, node in trace.walk()]
        assert names == [
            "net.client.request",
            "net.server.request",
            "service.route",
            "service.shard_op",
        ]

    def test_chain_matching_is_prefix_and_gap_tolerant(self):
        (trace,) = stitch(two_process_records())
        assert trace.has_chain(["net.client.request", "service.shard_op"])
        assert trace.has_chain(["net.client", "service.route", "service.shard"])
        assert not trace.has_chain(["service.shard_op", "net.client.request"])
        assert not trace.has_chain(["durability.wal.append"])

    def test_layer_attribution_sums_elapsed(self):
        (trace,) = stitch(two_process_records())
        layers = trace.layers()
        assert layers["route"]["elapsed_s"] == pytest.approx(0.002)
        assert layers["shard"]["elapsed_s"] == pytest.approx(0.001)
        assert layers["client"]["spans"] == 1
        assert layers["net"]["spans"] == 1
        # Self time is additive: client 5 ms ⊃ server 4 ms ⊃ route 2 ms ⊃
        # shard 1 ms is 1 + 2 + 1 + 1, not the 12 ms the inclusive sum gives.
        self_ms = {layer: entry["self_s"] * 1e3 for layer, entry in layers.items()}
        assert self_ms == pytest.approx({"client": 1, "net": 2, "route": 1, "shard": 1})
        assert sum(self_ms.values()) == pytest.approx(trace.elapsed_s() * 1e3) == 5

    def test_untraced_records_are_skipped(self):
        tracer = Tracer(sink := InMemoryTraceSink())
        span = tracer.start("adaptation_phase")
        tracer.end(span)
        for record in sink.records:
            record["_file"] = "local.jsonl"
        assert stitch(sink.records) == []

    def test_colliding_span_ids_name_both_files(self):
        records = two_process_records()
        clash = dict(records[0])
        clash["_file"] = "other.jsonl"
        with pytest.raises(StitchError, match="other.jsonl"):
            stitch(records + [clash])

    def test_unresolved_remote_parent_counts_as_orphan_root(self):
        records = [
            record
            for record in two_process_records()
            if record["_file"] == "server.jsonl"
        ]
        (trace,) = stitch(records)
        assert trace.orphans == 1
        assert trace.roots[0].name == "net.server.request"


class TestRendering:
    def test_text_view_shows_tree_and_layers(self):
        text = render_text(stitch(two_process_records()))
        assert "net.client.request" in text
        assert "-- layer attribution --" in text
        assert "1 stitched trace(s)" in text

    def test_json_view_nests_children_and_keeps_files(self):
        payload = json.loads(render_json(stitch(two_process_records())))
        (trace,) = payload["traces"]
        assert trace["spans"] == 4
        root = trace["tree"][0]
        assert root["file"] == "client.jsonl"
        assert root["children"][0]["name"] == "net.server.request"


class TestCli:
    def write_files(self, tmp_path):
        records = two_process_records()
        for filename in ("client.jsonl", "server.jsonl"):
            lines = [
                json.dumps({key: value for key, value in record.items() if key != "_file"})
                for record in records
                if record["_file"] == filename
            ]
            (tmp_path / filename).write_text("\n".join(lines) + "\n")
        return [str(tmp_path / "client.jsonl"), str(tmp_path / "server.jsonl")]

    def test_load_records_tags_source_files(self, tmp_path):
        paths = self.write_files(tmp_path)
        records = load_records(paths)
        assert {record["_file"] for record in records} == set(paths)

    def test_require_chain_success_and_failure(self, tmp_path, capsys):
        paths = self.write_files(tmp_path)
        assert main(paths + ["--require-chain", "net.client>service.shard_op"]) == 0
        assert "chain ok" in capsys.readouterr().out
        assert main(paths + ["--require-chain", "durability.wal.append"]) == 2

    def test_bad_input_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main([str(bad)]) == 1

    def test_json_output_file(self, tmp_path):
        paths = self.write_files(tmp_path)
        out = tmp_path / "stitched.json"
        assert main(paths + ["--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["traces"]
