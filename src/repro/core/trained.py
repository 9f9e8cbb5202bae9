"""Offline ("trained") hybrid indexes (Section 3.2).

When the workload is known beforehand — historic traces or a self-driving
DBMS's prediction — the adaptation manager can skip run-time sampling:
rank the units by their access frequency in the trace and expand the most
frequent ones until the memory budget (or the supply of units) is
exhausted.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Tuple

from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.manager import AdaptiveIndex


def rank_units(trace: Iterable[Tuple[Hashable, AccessType]]) -> list:
    """Rank unit identifiers by access frequency, hottest first.

    Reads and writes count alike, as in the run-time classification.
    """
    frequencies = Counter(identifier for identifier, _ in trace)
    return [identifier for identifier, _ in frequencies.most_common()]


def train_offline(
    index: AdaptiveIndex,
    trace: Iterable[Tuple[Hashable, AccessType]],
    fast_encoding: object,
    budget: MemoryBudget | None = None,
) -> int:
    """Expand the hottest trace units until the budget is reached.

    Returns the number of migrations performed.  The index is expected to
    already be fully compacted (its cold-default state); units already in
    ``fast_encoding`` are skipped.
    """
    budget = budget or MemoryBudget.unbounded()
    migrated = 0
    for identifier in rank_units(trace):
        if budget.exceeded(index.size_bytes(), index.num_keys):
            break
        current = index.encoding_of(identifier)
        if current is None or current == fast_encoding:
            continue
        if index.migrate(identifier, fast_encoding, None):
            migrated += 1
    return migrated
