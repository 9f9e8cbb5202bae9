"""Cross-PR performance trajectory report.

Every perf-bearing PR commits a machine-readable ``BENCH_PR<N>.json`` at
the repo root (batched ops, observability overhead, sharding speedup,
durability retention, tail latency, distributed-tracing overhead).  This
tool reads them all and renders the repo's performance story in one
table — each suite's headline metrics next to the bound that suite
promises — so a reviewer can see at a glance whether the claims still
hold together::

    PYTHONPATH=src python benchmarks/trajectory.py
    PYTHONPATH=src python benchmarks/trajectory.py --format json
    PYTHONPATH=src python benchmarks/trajectory.py --check

``--check`` exits non-zero when any committed result violates its own
embedded requirement (e.g. ``BENCH_PR4.json``'s modeled speedup below
its ``required``), or when a ``BENCH_PR*.json`` is not a JSON object
with a ``suite`` key.  CI's bench-smoke job runs it so a PR cannot
commit a result file that contradicts the claim it documents.

Unknown result files (future PRs) are not an error: they are listed with
their suite name and checked only for well-formedness, so this tool
never needs a lockstep update to land a new bench.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _row(suite, metric, value, op=None, required=None):
    """One report row; ``ok`` is None for purely informational rows."""
    ok = None
    if op == ">=":
        ok = value >= required
    elif op == "<=":
        ok = value <= required
    elif op == "==":
        ok = value == required
    return {
        "suite": suite,
        "metric": metric,
        "value": value,
        "op": op,
        "required": required,
        "ok": ok,
    }


def _extract_pr2(payload):
    suite = payload["suite"]
    rows = []
    for section in ("lookups", "inserts"):
        for family, stats in payload.get(section, {}).items():
            rows.append(_row(suite, f"{section}.{family}.speedup", stats["speedup"]))
    return rows


def _extract_pr3(payload):
    suite = payload["suite"]
    bound = payload.get("overhead_bound", 0.05)
    return [
        _row(suite, f"{family}.gate_share", stats["gate_share"], "<=", bound)
        for family, stats in payload.get("families", {}).items()
    ]


def _extract_pr4(payload):
    headline = payload["headline"]
    return [
        _row(
            payload["suite"],
            f"modeled_speedup@{headline['shards']}shards",
            headline["modeled_speedup"],
            ">=",
            headline["required"],
        )
    ]


def _extract_pr6(payload):
    suite = payload["suite"]
    headline = payload["headline"]
    rows = [
        _row(
            suite,
            "group_commit_retention",
            headline["group_commit_retention"],
            ">=",
            headline["required"],
        )
    ]
    campaign = payload.get("crash_campaign")
    if campaign is not None:
        rows.append(_row(suite, "crash_campaign.crashes", campaign["crashes"]))
        rows.append(_row(suite, "crash_campaign.lost_writes", campaign["lost_writes"], "==", 0))
        rows.append(
            _row(suite, "crash_campaign.phantom_writes", campaign["phantom_writes"], "==", 0)
        )
    return rows


def _extract_pr7(payload):
    suite = payload["suite"]
    headline = payload["headline"]
    return [
        _row(
            suite,
            "coalescing_p99_ratio",
            headline["coalescing_p99_ratio"],
            ">=",
            headline["coalescing_required"],
        ),
        _row(
            suite,
            "admission_p999_ratio",
            headline["admission_p999_ratio"],
            ">=",
            headline["admission_ratio_required"],
        ),
        _row(
            suite,
            "admission_p999_s",
            headline["admission_p999_s"],
            "<=",
            headline["admission_p999_bound_s"],
        ),
    ]


def _extract_pr8(payload):
    suite = payload["suite"]
    bound = payload.get("overhead_bound", 0.05)
    headline = payload["headline"]
    return [
        _row(suite, "tracing.disabled_share", headline["disabled_share"], "<=", bound),
        _row(
            suite, "tracing.sampled_1pct_share", headline["sampled_1pct_share"], "<=", bound
        ),
        _row(suite, "tracing.sampled_100pct_share", headline["sampled_100pct_share"]),
    ]


def _extract_pr9(payload):
    suite = payload["suite"]
    headline = payload["headline"]
    rows = [
        _row(
            suite,
            "replication.divergent_speedup",
            headline["divergent_speedup"],
            ">=",
            headline.get("required", 1.3),
        ),
    ]
    fault = payload.get("fault_leg")
    if fault is not None:
        rows.append(
            _row(
                suite,
                "replication.lost_acked_writes",
                fault["lost_acked_writes"],
                "<=",
                0,
            )
        )
    return rows


#: File stem -> headline extractor.  Files not listed here are checked
#: for well-formedness only and reported by suite name.
EXTRACTORS = {
    "BENCH_PR2": _extract_pr2,
    "BENCH_PR3": _extract_pr3,
    "BENCH_PR4": _extract_pr4,
    "BENCH_PR6": _extract_pr6,
    "BENCH_PR7": _extract_pr7,
    "BENCH_PR8": _extract_pr8,
    "BENCH_PR9": _extract_pr9,
}


def _pr_number(path):
    digits = "".join(ch for ch in path.stem if ch.isdigit())
    return int(digits) if digits else 0


def collect(root=REPO_ROOT):
    """Read every BENCH_PR*.json under ``root``; returns (rows, errors)."""
    rows = []
    errors = []
    for path in sorted(root.glob("BENCH_PR*.json"), key=_pr_number):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            errors.append(f"{path.name}: unreadable: {error}")
            continue
        if not isinstance(payload, dict) or "suite" not in payload:
            errors.append(f"{path.name}: not a JSON object with a 'suite' key")
            continue
        extractor = EXTRACTORS.get(path.stem)
        if extractor is None:
            row = _row(str(payload["suite"]), "(no headline extractor)", None)
            row["file"] = path.name
            rows.append(row)
            continue
        try:
            extracted = extractor(payload)
        except (KeyError, TypeError) as error:
            errors.append(f"{path.name}: malformed for {path.stem} extractor: {error}")
            continue
        for row in extracted:
            row["file"] = path.name
        rows.extend(extracted)
    return rows, errors


def format_text(rows, errors):
    lines = ["performance trajectory (committed BENCH_PR*.json headlines)", ""]
    current = None
    for row in rows:
        if row["file"] != current:
            current = row["file"]
            lines.append(f"{current}  [{row['suite']}]")
        value = "-" if row["value"] is None else f"{row['value']:g}"
        if row["ok"] is None:
            verdict = ""
        else:
            verdict = (
                f"  {'ok' if row['ok'] else 'FAIL'} "
                f"(requires {row['op']} {row['required']:g})"
            )
        lines.append(f"  {row['metric']:<36} {value:>12}{verdict}")
    for error in errors:
        lines.append(f"  ERROR: {error}")
    checked = [row for row in rows if row["ok"] is not None]
    failed = [row for row in checked if not row["ok"]]
    lines.append("")
    lines.append(
        f"{len(rows)} metric(s) from {len({row['file'] for row in rows})} file(s); "
        f"{len(checked)} bound(s) checked, {len(failed)} failed, "
        f"{len(errors)} file error(s)"
    )
    return "\n".join(lines)


def format_json(rows, errors):
    return json.dumps({"rows": rows, "errors": errors}, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Aggregate committed BENCH_PR*.json headline metrics."
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="directory holding BENCH_PR*.json (default: repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any embedded requirement fails or a file is malformed",
    )
    args = parser.parse_args(argv)
    rows, errors = collect(args.root)
    print(format_text(rows, errors) if args.format == "text" else format_json(rows, errors))
    if args.check:
        failed = [row for row in rows if row["ok"] is False]
        for row in failed:
            print(
                f"TRAJECTORY FAILURE: {row['file']} {row['metric']} = "
                f"{row['value']:g}, requires {row['op']} {row['required']:g}",
                file=sys.stderr,
            )
        if failed or errors:
            return 1
        checked = sum(1 for row in rows if row["ok"] is not None)
        print(f"trajectory ok: {checked} bound(s) hold across {len(rows)} metric(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
