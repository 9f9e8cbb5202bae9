"""Stitch per-process JSONL traces into per-request causal trees.

Each process of a distributed run writes a self-contained JSONL trace
(its ``parent_id`` graph closes locally; see ``docs/trace_schema.json``).
The cross-process link is carried out-of-band: a span opened by
:meth:`~repro.obs.tracing.Tracer.start_remote` is a local root whose
``attributes.remote_parent_id`` names the originating span in *another*
file, and both sides share a ``trace_id``.  This tool joins the files::

    python -m repro.obs.stitch client.jsonl server.jsonl
    python -m repro.obs.stitch *.jsonl --format json --output stitched.json
    python -m repro.obs.stitch *.jsonl \\
        --require-chain 'net.client.request>service.shard_op>lookup'

Per trace it prints a flame-style breakdown: the stitched span tree
(indentation = causality) and a per-layer attribution table — *self*
time (a span's measured ``elapsed_s`` minus what its nearest timed
descendants cover, so the rows add up to the request) summed by the
layer each span name maps to (see
:data:`repro.obs.distributed.SPAN_LAYERS`), span counts for layers that
carry no wall-clock (the index hot path is sequence-ordered on purpose).

``--require-chain a>b>c`` asserts at least one stitched trace contains
spans named ``a``, ``b``, ``c`` on one ancestor line, in order, gaps
allowed (names are prefix-matched, so ``service.shard`` also matches
``service.shard_op``).  The ``obs-e2e`` CI job uses this to prove a traced
request really crossed net -> index -> wal.  Exit codes: 0 ok, 1 input
error, 2 a required chain matched no trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.distributed import layer_of

Record = Dict[str, Any]


class StitchError(ValueError):
    """Input files that cannot be stitched into coherent traces."""


def load_records(paths: Sequence[str]) -> List[Record]:
    """All span records from ``paths``, tagged with their source file."""
    records: List[Record] = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise StitchError(f"{path}:{lineno}: not JSON: {error}") from error
            if not isinstance(record, dict):
                raise StitchError(f"{path}:{lineno}: span record must be an object")
            record["_file"] = path
            records.append(record)
    return records


class SpanNode:
    """One span in a stitched tree."""

    __slots__ = ("record", "children")

    def __init__(self, record: Record) -> None:
        self.record = record
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return str(self.record["name"])

    @property
    def span_id(self) -> int:
        return int(self.record["span_id"])

    @property
    def elapsed_s(self) -> Optional[float]:
        """The span's measured wall-clock, None for sequence-only spans."""
        elapsed = self.record.get("attributes", {}).get("elapsed_s")
        if isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool):
            return float(elapsed)
        return None

    def sort_children(self) -> None:
        self.children.sort(key=lambda node: node.record.get("seq_start", 0))
        for child in self.children:
            child.sort_children()


class Trace:
    """All spans sharing one trace id, stitched across files."""

    def __init__(self, trace_id: int, roots: List[SpanNode], orphans: int) -> None:
        self.trace_id = trace_id
        self.roots = roots
        #: remote_parent_id references that resolved to no span in this
        #: trace (the referenced process's file was not supplied).
        self.orphans = orphans

    def walk(self) -> Iterable[Tuple[int, SpanNode]]:
        """(depth, node) pairs, preorder."""
        stack = [(0, root) for root in reversed(self.roots)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def elapsed_s(self) -> float:
        """The whole trace's wall-clock: its outermost timed spans, summed."""
        return _timed_below(self.roots)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer attribution: span count, inclusive and self time.

        ``elapsed_s`` sums each span's own (inclusive) figure, so nested
        layers count the same interval once per level; ``self_s`` is the
        additive one — a span's ``elapsed_s`` minus the ``elapsed_s`` of
        its nearest timed descendants (looking through sequence-only
        index spans), floored at 0 where parallel children overlap.
        """
        summary: Dict[str, Dict[str, float]] = {}
        for _, node in self.walk():
            layer = layer_of(node.name)
            entry = summary.setdefault(layer, {"spans": 0, "elapsed_s": 0.0, "self_s": 0.0})
            entry["spans"] += 1
            elapsed = node.elapsed_s
            if elapsed is not None:
                entry["elapsed_s"] += elapsed
                entry["self_s"] += max(0.0, elapsed - _timed_below(node.children))
        return summary

    def has_chain(self, chain: Sequence[str]) -> bool:
        """True when some root-to-leaf line visits the names in order.

        Names are prefix-matched; intermediate spans are allowed (the
        chain is a subsequence of an ancestor line, not a direct path).
        """

        def descend(node: SpanNode, needed: Tuple[str, ...]) -> bool:
            if needed and node.name.startswith(needed[0]):
                needed = needed[1:]
            if not needed:
                return True
            return any(descend(child, needed) for child in node.children)

        want = tuple(chain)
        return any(descend(root, want) for root in self.roots)


def _timed_below(nodes: Sequence[SpanNode]) -> float:
    """Summed ``elapsed_s`` of the nearest timed span on each line below."""
    total = 0.0
    for node in nodes:
        elapsed = node.elapsed_s
        total += _timed_below(node.children) if elapsed is None else elapsed
    return total


def stitch(records: Sequence[Record]) -> List[Trace]:
    """Group records by trace id and stitch cross-file parent links.

    Only records carrying a ``trace_id`` participate (purely local spans
    have no cross-process identity).  Span ids must be unique within a
    trace — give each process a distinct ``span_id_base``.
    """
    by_trace: Dict[int, List[Record]] = {}
    for record in records:
        trace_id = record.get("trace_id")
        if trace_id is None:
            continue
        by_trace.setdefault(int(trace_id), []).append(record)

    traces: List[Trace] = []
    for trace_id, members in sorted(by_trace.items()):
        nodes: Dict[int, SpanNode] = {}
        for record in members:
            span_id = int(record["span_id"])
            if span_id in nodes:
                other = nodes[span_id].record
                raise StitchError(
                    f"trace {trace_id}: span id {span_id} appears in both "
                    f"{other['_file']} and {record['_file']} — run each "
                    "process with a distinct span_id_base"
                )
            nodes[span_id] = SpanNode(record)
        roots: List[SpanNode] = []
        orphans = 0
        for node in nodes.values():
            parent_id = node.record.get("parent_id")
            if parent_id is None:
                remote = node.record.get("attributes", {}).get("remote_parent_id")
                if remote is not None and int(remote) in nodes:
                    nodes[int(remote)].children.append(node)
                    continue
                if remote is not None:
                    orphans += 1
                roots.append(node)
                continue
            parent = nodes.get(int(parent_id))
            if parent is None:
                # Parent span was never emitted (e.g. truncated file);
                # keep the subtree visible as a root.
                orphans += 1
                roots.append(node)
                continue
            parent.children.append(node)
        for root in roots:
            root.sort_children()
        roots.sort(key=lambda node: node.record.get("seq_start", 0))
        traces.append(Trace(trace_id, roots, orphans))
    return traces


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_SHOWN_ATTRS = ("op", "tenant", "status", "decision", "count", "size", "fanout")


def _describe(node: SpanNode) -> str:
    attributes = node.record.get("attributes", {})
    parts = [f"{key}={attributes[key]}" for key in _SHOWN_ATTRS if key in attributes]
    elapsed = node.elapsed_s
    if elapsed is not None:
        parts.append(f"elapsed={elapsed * 1e6:.0f}us")
    return f" [{' '.join(parts)}]" if parts else ""


def render_text(traces: Sequence[Trace]) -> str:
    """The flame-style text view of every stitched trace."""
    lines: List[str] = []
    for trace in traces:
        lines.append(
            f"trace {trace.trace_id:#018x}: {trace.span_count()} spans"
            + (f" ({trace.orphans} unresolved remote links)" if trace.orphans else "")
        )
        for depth, node in trace.walk():
            lines.append(f"  {'  ' * depth}{node.name}{_describe(node)}")
        total = trace.elapsed_s()
        lines.append("  -- layer attribution --")
        for layer, entry in sorted(trace.layers().items(), key=lambda item: -item[1]["self_s"]):
            share = (entry["self_s"] / total * 100.0) if total > 0 else 0.0
            lines.append(
                f"  {layer:>10}: {int(entry['spans'])} spans, "
                f"{entry['self_s'] * 1e6:9.0f}us self ({share:5.1f}%)"
            )
        lines.append("")
    lines.append(f"{len(traces)} stitched trace(s)")
    return "\n".join(lines)


def _tree_json(node: SpanNode) -> Dict[str, Any]:
    record = {
        key: value for key, value in node.record.items() if key != "_file"
    }
    record["file"] = node.record["_file"]
    record["children"] = [_tree_json(child) for child in node.children]
    return record


def render_json(traces: Sequence[Trace]) -> str:
    """The machine-readable stitched view."""
    payload = {
        "traces": [
            {
                "trace_id": trace.trace_id,
                "spans": trace.span_count(),
                "unresolved_remote_links": trace.orphans,
                "layers": trace.layers(),
                "tree": [_tree_json(root) for root in trace.roots],
            }
            for trace in traces
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.stitch",
        description="Join client+server JSONL traces into per-request trees.",
    )
    parser.add_argument("files", nargs="+", help="JSONL trace files to stitch")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--output", default=None, metavar="FILE", help="write here instead of stdout"
    )
    parser.add_argument(
        "--require-chain",
        action="append",
        default=[],
        metavar="A>B>C",
        help="fail (exit 2) unless >=1 trace has these span names on one "
        "ancestor line, in order, gaps allowed (prefix match; repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        traces = stitch(load_records(args.files))
    except (StitchError, OSError) as error:
        print(f"STITCH FAILED: {error}", file=sys.stderr)
        return 1

    rendered = render_text(traces) if args.format == "text" else render_json(traces)
    if args.output is not None:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)

    failed = False
    for expression in args.require_chain:
        chain = [name.strip() for name in expression.split(">") if name.strip()]
        if not chain:
            print(f"STITCH FAILED: empty --require-chain {expression!r}", file=sys.stderr)
            return 1
        matched = sum(1 for trace in traces if trace.has_chain(chain))
        if matched == 0:
            print(
                f"REQUIRED CHAIN MISSING: {' > '.join(chain)} "
                f"(checked {len(traces)} traces)",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"chain ok: {' > '.join(chain)} in {matched} trace(s)")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
