"""Shared helpers for the pytest-benchmark targets that are not gated
suites: ``bench_olc.py`` and ``bench_serialization.py`` print a table,
assert a property and report one timed run.  (The paper's figures are rows in ``bench_paper.py``.)
"""

from __future__ import annotations


def banner(title: str) -> str:
    line = "=" * max(60, len(title) + 4)
    return f"\n{line}\n  {title}\n{line}"


def run_once(benchmark, func):
    """Time ``func`` exactly once through pytest-benchmark.

    These experiment drivers take seconds; statistical repetition would
    make the suite unusably slow while adding nothing (the modeled
    numbers inside the experiments are deterministic).
    """
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
