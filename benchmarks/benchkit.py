"""One result schema and one checker for the gated benches.

Every gated suite commits a ``BENCH_PR<N>.json`` at the repo root (the
paper's figures, ``bench_paper.py``, commit ``BENCH_PAPER.json``).  Next
to its detail sections the file carries ``headline``, a list of rows::

    {"metric": "modeled_speedup@4shards", "value": 3.94,
     "op": ">=", "bound": 2.0, "drift": true}

``op``/``bound`` state the suite's absolute claim (both ``null`` on a row
printed for context only).  ``drift`` marks a same-run ratio, which a
fresh run must keep within ``DRIFT_TOLERANCE`` of the committed value: a
speedup or retention ratio may not fall that far, a ``<=`` row (a cost
ratio between two things the run measures) may not rise that far.  An
overhead *share* divides by the system's own speed, so it keeps its
absolute bound and no drift rule (docs/observability.md, *Overhead
budget*).

A bench module supplies the measurement, ``format_report(payload)`` and
``headline(payload) -> rows``, and ends its ``main`` in :func:`finish`.
Run this file to check every committed result against its own rows::

    PYTHONPATH=src python benchmarks/benchkit.py
"""

import argparse
import json
import operator
import random
import time
from pathlib import Path

from repro.art.tree import terminated

REPO_ROOT = Path(__file__).resolve().parent.parent
OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}
ROW_KEYS = {"metric", "value", "op", "bound"}
#: How far a ``drift`` row may fall below its committed value — or, a
#: ``<=`` row (a cost ratio, lower is better), rise above it.
DRIFT_TOLERANCE = 0.30


def row(metric, value, op=None, bound=None, drift=False):
    """One headline row; without ``op`` it is informational."""
    entry = {"metric": metric, "value": value, "op": op, "bound": bound}
    if drift:
        entry["drift"] = True
    return entry


def verdict(entry):
    """True/False for a bounded row, None for an informational one."""
    if entry["op"] is None:
        return None
    return bool(OPS[entry["op"]](entry["value"], entry["bound"]))  # numpy's False is not False


def check(rows):
    """One failure line per row past its bound (reported, never raised)."""
    return [
        f"{entry['metric']} = {entry['value']:g}, requires {entry['op']} {entry['bound']:g}"
        for entry in rows
        if verdict(entry) is False
    ]


def check_drift(rows, committed):
    """One failure line per ``drift`` row of ``committed`` this run got
    worse than: fell below, or for a ``<=`` (cost) row rose above."""
    current = {entry["metric"]: entry["value"] for entry in rows}
    failures = []
    for base in committed:
        if not base.get("drift"):
            continue
        value = current.get(base["metric"])
        cost = base["op"] == "<="  # lower is better: drifting is rising
        limit = base["value"] * (1.0 + (DRIFT_TOLERANCE if cost else -DRIFT_TOLERANCE))
        if value is None:
            failures.append(f"{base['metric']}: missing from this run")
        elif value > limit if cost else value < limit:
            failures.append(
                f"{base['metric']}: {value:g} {'rose above' if cost else 'fell below'} "
                f"{limit:g} (committed {base['value']:g} {'+' if cost else '-'} "
                f"{DRIFT_TOLERANCE:.0%})"
            )
    return failures


def stamp(payload, headline):
    """Attach ``headline(payload)`` to ``payload`` and return it.

    The measuring functions predate the row schema and put their own
    summary dict under ``headline``; it moves to ``summary``.
    """
    if isinstance(payload.get("headline"), dict):
        payload["summary"] = payload.pop("headline")
    payload["headline"] = headline(payload)
    return payload


def load(path):
    """Read one committed result; ``ValueError`` says what is malformed."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"unreadable: {error}") from error
    if not isinstance(payload, dict) or "suite" not in payload:
        raise ValueError("not a JSON object with a 'suite' key")
    rows = payload.get("headline")
    if not isinstance(rows, list) or not rows:
        raise ValueError("'headline' is not a non-empty list of rows")
    for entry in rows:
        if not isinstance(entry, dict) or ROW_KEYS - entry.keys():
            raise ValueError(f"headline row {entry!r} lacks one of {sorted(ROW_KEYS)}")
        if entry["op"] is not None and entry["op"] not in OPS:
            raise ValueError(f"{entry['metric']}: unknown op {entry['op']!r}")
    return payload


def _pr_number(path):
    digits = "".join(ch for ch in path.stem if ch.isdigit())
    return int(digits) if digits else 0


def collect(root=REPO_ROOT):
    """Every ``BENCH_PR*.json`` under ``root`` in PR order, then
    ``BENCH_PAPER.json``: (rows, errors).

    Each row gains its ``file``, ``suite`` and ``ok`` verdict.
    """
    rows, errors = [], []
    paths = sorted(root.glob("BENCH_PR*.json"), key=_pr_number)
    for path in [*paths, *root.glob("BENCH_PAPER.json")]:
        try:
            payload = load(path)
        except ValueError as error:
            errors.append(f"{path.name}: {error}")
            continue
        rows.extend(
            dict(entry, file=path.name, suite=str(payload["suite"]), ok=verdict(entry))
            for entry in payload["headline"]
        )
    return rows, errors


def format_row(entry):
    ok = verdict(entry)
    text = f"  {entry['metric']:<36} {entry['value']:>12g}"
    if ok is not None:
        text += f"  {'ok' if ok else 'FAIL'} (requires {entry['op']} {entry['bound']:g})"
    if entry.get("drift"):
        text += "  [drift-checked]"
    return text


def format_trajectory(rows, errors):
    lines = ["performance trajectory (committed BENCH_*.json headlines)", ""]
    current = None
    for entry in rows:
        if entry["file"] != current:
            current = entry["file"]
            lines.append(f"{current}  [{entry['suite']}]")
        lines.append(format_row(entry))
    lines.extend(f"  ERROR: {error}" for error in errors)
    checked = [entry["ok"] for entry in rows if entry["ok"] is not None]
    lines.append("")
    lines.append(
        f"{len(rows)} metric(s) from {len({entry['file'] for entry in rows})} file(s); "
        f"{len(checked)} bound(s) checked, {checked.count(False)} failed, "
        f"{len(errors)} file error(s)"
    )
    return "\n".join(lines)


def parser(description):
    """An argument parser carrying the one flag every gated bench shares."""
    result = argparse.ArgumentParser(description=description)
    result.add_argument(
        "--write",
        action="store_true",
        help="rewrite the suite's committed BENCH_*.json with this run",
    )
    return result


def finish(payload, headline, report, result_file, write=False, failures=()):
    """The common tail of a gated bench's ``main``; returns its exit code.

    Stamps ``payload`` with its rows, prints the report, checks every
    row against its bound and the drift rows against the committed
    ``result_file``, and rewrites that file only when ``write`` is set.
    ``failures`` are lines from the caller's own campaign checks.
    """
    rows = stamp(payload, headline)["headline"]
    print(report(payload))
    print("\n".join(format_row(entry) for entry in rows))
    committed = load(result_file)["headline"] if result_file.exists() else []
    failures = [*failures, *check(rows), *check_drift(rows, committed)]
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print(f"ok: every bound holds, every drift row of {result_file.name} is kept")
    if write:
        result_file.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {result_file}")
    return 0


def main(root=REPO_ROOT) -> int:
    """The committed-file check: 1 on a violated bound or a malformed file."""
    rows, errors = collect(root)
    print(format_trajectory(rows, errors))
    return 1 if errors or any(entry["ok"] is False for entry in rows) else 0


# ----------------------------------------------------------------------
# Measurement helpers shared by the PR 2 and PR 3 suites
# ----------------------------------------------------------------------
def best_of(runs, func):
    """Fastest wall-clock of ``runs`` executions (noise floor, not mean)."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def int_data(num_keys, seed=0x5EED):
    """Sorted integer pairs plus an 80%-hit probe list in draw order."""
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(num_keys * 4), num_keys))
    pairs = [(key, key * 3 + 1) for key in keys]
    probes = [
        rng.choice(keys) if rng.random() < 0.8 else rng.randrange(num_keys * 4)
        for _ in range(num_keys)
    ]
    return pairs, probes


def byte_data(num_keys, seed=0xBEEF):
    """Sorted terminated byte-string pairs plus an 80%-hit probe list."""
    rng = random.Random(seed)
    words = set()
    while len(words) < num_keys:
        words.add(bytes(rng.randrange(97, 123) for _ in range(rng.randrange(4, 14))))
    keys = sorted(terminated(word) for word in words)
    pairs = [(key, index) for index, key in enumerate(keys)]
    probes = [
        rng.choice(keys)
        if rng.random() < 0.8
        else terminated(bytes(rng.randrange(97, 123) for _ in range(6)))
        for _ in range(num_keys)
    ]
    return pairs, probes


if __name__ == "__main__":
    raise SystemExit(main())
