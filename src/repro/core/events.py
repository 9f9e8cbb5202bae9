"""Adaptation telemetry.

The timeline figures of the paper (12, 16, 20) plot encoding migrations,
skip lengths, and index sizes over time.  Every adaptation phase appends
one :class:`AdaptationEvent` to the manager's :class:`EventLog`; the
benchmark harness reads the log to regenerate those series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


@dataclass(frozen=True)
class AdaptationEvent:
    """Summary of one adaptation phase."""

    epoch: int
    accesses_seen: int       # total index accesses when the phase ran
    sampled: int             # sampled accesses aggregated this phase
    unique_tracked: int      # distinct units in the sample map
    hot: int                 # units classified hot
    expansions: int          # migrations toward the fast encoding
    compactions: int         # migrations toward the compact encoding
    evictions: int           # units dropped from tracking
    skip_length_before: int
    skip_length_after: int
    sample_size_after: int
    index_bytes: int         # modeled index size after the phase
    migration_failures: int = 0   # migrations that raised this phase
    retries: int = 0              # failed units re-attempted this phase
    quarantined: int = 0          # units newly quarantined this phase
    adaptation_disabled: bool = False  # True once degradation kicked in

    def as_dict(self) -> Dict:
        """This event as a JSON-safe dict.

        The *single* serialization path for adaptation events: the
        timeline benchmarks (Figures 12, 16, 20), the JSONL trace sink's
        ``adaptation_phase`` span attributes, and :meth:`EventLog.to_jsonl`
        all route through it instead of plucking fields ad hoc.
        """
        from repro.obs.jsonable import to_jsonable

        return to_jsonable(self)

    @property
    def migrations(self) -> int:
        """Expansions plus compactions in this phase."""
        return self.expansions + self.compactions


@dataclass
class EventLog:
    """Append-only record of adaptation phases: the per-phase series.
    Lifetime totals are the manager's
    :class:`~repro.core.manager.ManagerCounters`."""

    events: List[AdaptationEvent] = field(default_factory=list)

    def append(self, event: AdaptationEvent) -> None:
        """Append one entry."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[AdaptationEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> AdaptationEvent:
        return self.events[index]

    def as_dicts(self) -> List[Dict]:
        """Every event through :meth:`AdaptationEvent.as_dict`, in order."""
        return [event.as_dict() for event in self.events]

    def to_jsonl(self) -> str:
        """The log as JSON Lines (one event document per line)."""
        return "\n".join(
            json.dumps(event, sort_keys=True) for event in self.as_dicts()
        )

    def clear(self) -> None:
        """Remove every entry."""
        self.events.clear()
