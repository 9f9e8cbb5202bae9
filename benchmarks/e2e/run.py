"""The repo benchmark: five closed-loop workloads, end to end and layer by layer.

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py [--smoke] [--json OUT]      (all five)

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same op stream at a quarter of the length twice —
plain, then with timing wrappers around each layer's public callables —
and reports the per-layer metrics.  Every metric is printed by name with
its unit, every reply is verified (see ``check.py``), and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is non-zero when any reply was wrong.

Op counts are fixed — ``rate * --seconds`` with the per-workload rates in
``SIZES`` — never a time-based stop, so the same seed is the same work.
README.md explains every metric and how to read a traced table.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import check  # noqa: E402
import inproc  # noqa: E402
import wire  # noqa: E402

#: ``--seconds`` when not given: ``run_seconds`` of BENCHMARK.json.
RUN_SECONDS = 10

#: Share of the op stream a traced run replays (twice: plain, then traced).
TRACE_SHARE = 0.25

#: ``--smoke`` divides every op count by this.
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class Size:
    """Preloaded keys, and ops per nominal second of each phase.

    The rates are what the reference box sustains at ``CALIB_NOMINAL_S``, so
    a phase lasts its share of ``--seconds`` there; a wire workload splits
    ``--seconds`` evenly between ``lat`` and ``cap``.  README.md records
    where the key counts and phase lengths differ from the issue's, and why.
    """

    keys: int
    rates: Tuple[int, ...]


SIZES = {
    "net_read": Size(400_000, (7_500, 15_500)),
    "net_write": Size(100_000, (1_350, 2_050)),
    "router_batch": Size(400_000, (5_600,)),
    "btree_adapt": Size(400_000, (36_000,)),
    "trie_adapt": Size(20_000, (6_500,)),
}
WORKLOADS = list(SIZES)


def declared() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end" | "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {metric["name"]: metric["unit"] for metric in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def make(name: str, seed: int, seconds: float, share: float) -> Any:
    """A fresh workload object sized for ``seconds * share`` nominal seconds."""
    size = SIZES[name]
    per_phase = seconds / len(size.rates) * share
    ops = tuple(max(300, int(rate * per_phase)) for rate in size.rates)
    workload = {**inproc.WORKLOADS, **wire.WORKLOADS}[name]
    return workload(seed, ops, size.keys, slice_share=min(1.0, share))


def plain_run(
    name: str, seed: int, seconds: float, share: float, corrupt: Optional[int]
) -> Tuple[Dict[str, float], Dict[str, float], check.Verdict, List[str]]:
    """Set up, measure untraced, verify."""
    workload = make(name, seed, seconds, share)
    try:
        workload.setup()
        phases = workload.measure()
        metrics = workload.end_to_end(phases)
        metrics["setup_s"] = workload.setup_seconds
        qualifiers = workload.driver_metrics(phases)
        verdict = check.Verdict()
        workload.verify(verdict, corrupt)
        metrics["ok_frac"] = 1.0 - verdict.failed / max(1, verdict.attempted)
        notes = [f"get_p50_ms over {workload.get_samples} samples"] + workload.notes()
        notes += [
            f"phase {phase_name}: {phase.ops} ops in {phase.raw_seconds:.2f} s"
            f" ({phase.normalised_seconds:.2f} s at the reference speed)"
            for phase_name, phase in phases.items()
        ]
    finally:
        workload.close()
    return metrics, qualifiers, verdict, notes


def traced_pass(
    name: str, seed: int, seconds: float, share: float, traced: bool, corrupt: Optional[int]
) -> Tuple[float, Dict[str, int], Dict[str, float], check.Verdict]:
    """One short pass: ``(throughput, exact counts, metrics, verdict)``.

    The plain pass yields the ``driver.*`` qualifiers, the traced one the
    layers; only the traced pass is verified (it is the one reported).
    """
    workload = make(name, seed, seconds, share * TRACE_SHARE)
    verdict = check.Verdict()
    try:
        workload.setup(traced)
        phases = workload.measure()
        phase = phases.get("cap") or phases["main"]
        if traced:
            metrics = workload.layers(phases)
            workload.verify(verdict, corrupt)
            metrics.update(workload.layers_after_verify())
        else:
            metrics = workload.driver_metrics(phases)
        return phase.ops / phase.normalised_seconds, workload.exact_counts(), metrics, verdict
    finally:
        workload.close()
        gc.collect()


def traced_run(
    name: str, seed: int, seconds: float, share: float, corrupt: Optional[int]
) -> Tuple[Dict[str, float], check.Verdict, List[str]]:
    """The same short stream twice — plain, then traced — for per-layer metrics."""
    plain_rate, plain_counts, layers, _ = traced_pass(name, seed, seconds, share, False, corrupt)
    traced_rate, traced_counts, traced_layers, verdict = traced_pass(
        name, seed, seconds, share, True, corrupt
    )
    layers.update(traced_layers)
    layers["driver.trace_overhead_frac"] = 1.0 - traced_rate / plain_rate
    layers["driver.fail_frac"] = verdict.failed / max(1, verdict.attempted)
    notes = []
    if plain_counts != traced_counts:
        notes.append(f"counts do NOT repeat: plain {plain_counts}, traced {traced_counts}")
    elif plain_counts:
        notes.append(f"counts repeat exactly across the two passes: {plain_counts}")
    return layers, verdict, notes


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the table and the result line."""
    calib.pin(-1)
    seconds = args.seconds
    share = 1.0 / SMOKE_DIVISOR if args.smoke else 1.0
    names = declared()
    if args.trace:
        metrics, verdict, notes = traced_run(args.workload, args.seed, seconds, share, args.corrupt)
        units, shown = names["per_layer"], dict(metrics)
        unknown = sorted(set(metrics) - set(units))
        if unknown:
            sys.exit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer off this workload's path did no work: report it as 0.
        metrics = {metric: metrics.get(metric, 0.0) for metric in units}
    else:
        metrics, qualifiers, verdict, notes = plain_run(
            args.workload, args.seed, seconds, share, args.corrupt
        )
        units = {**names["end_to_end"], **names["per_layer"]}
        shown = {**metrics, **qualifiers}
        if set(metrics) != set(names["end_to_end"]):
            sys.exit(f"end-to-end metrics differ from BENCHMARK.json: {sorted(metrics)}")
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {seconds:g}"
        f"  trace {args.trace}{'  smoke' if args.smoke else ''}"
    )
    for metric in sorted(shown):
        print(f"  {metric:<38} {shown[metric]:>16.6g} {units[metric]}")
    for note in notes:
        print(f"  note: {note}")
    for example in verdict.examples:
        print(f"  WRONG: {example}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }
    if args.json:
        Path(args.json).write_text(json.dumps({**result, "computed": shown}, indent=1))
    print(json.dumps(result))
    return 0 if verdict.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process (peak RSS is per process)."""
    traces = (0, 1) if args.smoke else (args.trace,)
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    computed: Dict[str, List[str]] = {}
    status = 0
    scratch = Path(tempfile.mkdtemp(prefix=".work-results-", dir=HERE))
    try:
        for name in WORKLOADS:
            for trace in traces:
                out = scratch / f"result-{name}-{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace), "--json", str(out),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.rstrip().splitlines()
                print("\n".join(lines[:-1]))
                status = status or done.returncode
                if done.returncode not in (0, 1) or not out.exists():
                    print(f"  {name} trace {trace}: exit code {done.returncode}, no result")
                    status = status or 2
                    continue
                result = json.loads(out.read_text())
                combined["correct"] = combined["correct"] and result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                computed[f"{name}/{trace}"] = sorted(result["computed"])
                for metric, entry in result["metrics"].items():
                    combined["metrics"][f"{name}/{metric}"] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.json:
        Path(args.json).write_text(json.dumps({**combined, "computed": computed}, indent=1))
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="nominal measured seconds; op counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"op counts / {SMOKE_DIVISOR}; with no --workload, trace 0 and 1")
    parser.add_argument("--json", metavar="OUT", help="also write the result object to OUT")
    parser.add_argument("--corrupt", type=int, metavar="OP",
                        help="self-check: corrupt the expected reply of op OP (must exit non-zero)")
    args = parser.parse_args(argv)
    # Ctrl-C and SIGTERM both unwind through the finally blocks that stop
    # the server child and remove scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
