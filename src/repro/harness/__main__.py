"""Command-line experiment runner.

Regenerate any paper table/figure from the shell::

    python -m repro.harness list               # show available experiments
    python -m repro.harness fig12              # run one at default scale
    python -m repro.harness tab1 fig9          # run several
    python -m repro.harness all                # run everything (minutes)
    python -m repro.harness fig14 --scale 0.5  # shrink the default sizes
    python -m repro.harness fig13 --trace out.jsonl --metrics out.prom

``--scale`` multiplies every integer size parameter (key counts,
operation counts) of the chosen experiments' own defaults.  The sizes a
figure's shape is *judged* at are written once, in the table of
``benchmarks/bench_paper.py``.  ``--trace``/``--metrics`` install the
:mod:`repro.obs` telemetry layer around the run and export a JSONL span
trace and a Prometheus snapshot; ``--trace-ops N`` additionally samples
every N-th per-operation span (off by default — phase-level spans only).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, Dict

from repro.harness import experiments as exp
from repro.harness.report import format_series, format_table, human_bytes

EXPERIMENTS: Dict[str, Callable] = {
    "fig2": exp.experiment_fig2,
    "fig3": exp.experiment_fig3,
    "fig5": exp.experiment_fig5,
    "fig6": exp.experiment_fig6,
    "fig9": exp.experiment_fig9,
    "fig12": exp.experiment_fig12,
    "fig13": exp.experiment_fig13,
    "fig14": exp.experiment_fig14,
    "fig15": exp.experiment_fig15,
    "fig16": exp.experiment_fig16,
    "fig17": exp.experiment_fig17,
    "fig18": exp.experiment_fig18,
    "fig19": exp.experiment_fig19,
    "fig20": exp.experiment_fig20,
    "net-bench": exp.experiment_net_bench,
    "replication-bench": exp.experiment_replication_bench,
    "tab1": exp.experiment_table1,
    "tab2": exp.experiment_table2,
    "tab4": exp.experiment_table4,
    "appendix-fig2": exp.experiment_appendix_fig2_distributions,
    "appendix-fig5": exp.experiment_appendix_fig5_workloads,
}

_SCALABLE_PARAMS = (
    "num_items", "workload_size", "num_keys", "num_lookups", "num_ops",
    "ops_per_phase", "ops_per_thread", "training_ops", "small_keys",
    "large_keys", "migrations_per_pair",
)


def _scaled_kwargs(function: Callable, scale: float) -> Dict[str, int]:
    if scale == 1.0:
        return {}
    kwargs: Dict[str, int] = {}
    signature = inspect.signature(function)
    for name, parameter in signature.parameters.items():
        if name in _SCALABLE_PARAMS and isinstance(parameter.default, int):
            kwargs[name] = max(64, int(parameter.default * scale))
    return kwargs


def render(name: str, result: Dict) -> None:
    """Print one experiment result in the paper's table/series shape."""
    line = "=" * 68
    print(f"\n{line}\n  {name}\n{line}")
    if "rows" in result:
        print(format_table(result["headers"], result["rows"]))
    if "series" in result:
        for series_name, series in result["series"].items():
            print("  " + format_series(series_name.ljust(11), series, unit="ns"))
    if "sizes" in result:
        print("final sizes:")
        for index_name, (index_bytes, aux_bytes) in result["sizes"].items():
            print(f"  {index_name:<12} {human_bytes(index_bytes):>10} (+{human_bytes(aux_bytes)})")
    for extra in ("expansions", "compactions", "skip_lengths"):
        if extra in result:
            print(f"{extra} (cumulative per interval): {result[extra]}")
    if "compression_ratio" in result:
        print(f"compression ratio: {result['compression_ratio']:.1%}")


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply default size parameters (default 1.0)",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write each result as JSON/CSV under DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a Prometheus text-exposition snapshot to FILE",
    )
    parser.add_argument(
        "--trace-ops",
        metavar="N",
        type=int,
        default=0,
        help="sample every N-th per-operation span into the trace "
        "(0 = phase-level spans only, the default)",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        width = max(map(len, EXPERIMENTS))
        for name, function in EXPERIMENTS.items():
            summary = (inspect.getdoc(function) or "").splitlines()[0]
            print(f"{name:<{width}} {summary}")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} (try 'list')")

    telemetry = None
    if args.trace or args.metrics:
        from repro.obs import JsonlTraceSink, MetricsRegistry, Telemetry, Tracer

        tracer = None
        if args.trace:
            tracer = Tracer(
                JsonlTraceSink(args.trace), op_sample_every=max(0, args.trace_ops)
            )
        telemetry = Telemetry(registry=MetricsRegistry(), tracer=tracer)
        telemetry.install()

    try:
        for name in names:
            function = EXPERIMENTS[name]
            root_span = None
            if telemetry is not None and telemetry.tracer is not None:
                # repro: ignore[RA004] -- one root span per experiment run;
                # names are bounded by the EXPERIMENTS registry, not per-op.
                root_span = telemetry.tracer.start(
                    f"experiment:{name}", scale=args.scale
                )
            started = time.perf_counter()
            result = function(**_scaled_kwargs(function, args.scale))
            elapsed = time.perf_counter() - started
            if root_span is not None:
                telemetry.tracer.end(root_span)
            render(f"{name}  ({elapsed:.1f}s)", result)
            if args.export:
                from repro.harness.export import write_result

                written = write_result(result, args.export, name)
                print("exported: " + ", ".join(str(path) for path in written.values()))
    finally:
        if telemetry is not None:
            telemetry.uninstall()

    if telemetry is not None:
        from repro.obs import render_telemetry

        if args.metrics:
            from pathlib import Path

            Path(args.metrics).write_text(telemetry.registry.to_prometheus())
            print(f"metrics: {args.metrics}")
        if args.trace:
            print(f"trace: {args.trace}")
        print(render_telemetry(telemetry, title=", ".join(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
