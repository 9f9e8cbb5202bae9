"""Is the benchmark steady?  Two sets of full runs, judged by its own bounds.

    python benchmarks/e2e/repeat.py [--runs 5] [--workload W ...] [--first-seed 1]

Runs every workload ``--runs`` times, each time with another seed, twice
over (two *sets*), and prints per workload x end-to-end metric each set's
median and quartiles, the run-to-run spread ``(max - min) / median``, the
distance between the quartiles as a share of the median (``iqr``, from
``statistics.quantiles(values, n=4)``), and how much worse the second
set's median is than the first's (``shift``).  A row passes when

* the spread is within ``SPREAD_LIMIT`` (10 %) for a timing metric —
  ``setup_s`` included — and within the metric's bound for the others,
* the distance between the quartiles is within the bound, and
* the shift is within the bound;

``steady`` marks a quartile distance under a third of the bound.

If a timing metric fails here, lengthen the phases (``run_seconds``, or
the rates in ``run.py``); do not widen a bound past 15 %, drop a check,
or switch to best-of.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Most a timing metric may spread, (max - min) / median, within one set.
SPREAD_LIMIT = 0.10
TIMING_UNITS = ("s", "ms", "1/s")


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (raises if it was not correct)."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.rstrip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} wrong replies")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def judge(metric: Dict[str, object], first_set: List[float], values: List[float]) -> Dict[str, object]:
    """One row: ``values`` of ``metric`` in a set, against the first set's median."""
    bound = float(metric["bound"])  # type: ignore[arg-type]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    first, median, third = statistics.quantiles(values, n=4)
    reference = statistics.median(first_set)
    spread = (max(values) - min(values)) / median
    iqr = (third - first) / median
    shift = sign * (median - reference) / reference
    limit = SPREAD_LIMIT if metric["unit"] in TIMING_UNITS else bound
    return {
        "q1": first, "median": median, "q3": third,
        "spread": spread, "iqr": iqr, "shift": shift, "limit": limit,
        "ok": spread <= limit and iqr <= bound and shift <= bound,
        "steady": iqr < bound / 3,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or names

    sets: List[Dict[str, List[Dict[str, float]]]] = []
    for number in range(2):
        runs: Dict[str, List[Dict[str, float]]] = {}
        for workload in workloads:
            first = args.first_seed + number * args.runs
            runs[workload] = [
                one_run(workload, seed, args.seconds) for seed in range(first, first + args.runs)
            ]
            print(f"# set {number + 1}: {workload} done", file=sys.stderr, flush=True)
        sets.append(runs)

    failed = 0
    print(
        f"{'workload':<13}{'metric':<14}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
        f"{'spread':>8}{'limit':>7}{'iqr':>7}{'shift':>8}{'bound':>7}  verdict"
    )
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first_set = [run[name] for run in sets[0][workload]]
            for number, runs in enumerate(sets):
                row = judge(metric, first_set, [run[name] for run in runs[workload]])
                failed += not row["ok"]
                print(
                    f"{workload:<13}{name:<14}{number + 1:>4}{row['q1']:>12.5g}"
                    f"{row['median']:>12.5g}{row['q3']:>12.5g}{row['spread']:>8.1%}"
                    f"{row['limit']:>7.1%}{row['iqr']:>7.1%}{row['shift']:>+8.1%}"
                    f"{metric['bound']:>7.1%}  {'PASS' if row['ok'] else 'FAIL'}"
                    f"{' steady' if row['steady'] else ''}"
                )
    print(f"{'FAIL' if failed else 'PASS'}: {failed} of the rows above are outside a limit")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
