"""Context-sensitive heuristic functions (CSHF).

After classification, the adaptation manager asks a CSHF for every tracked
unit which encoding it should use next.  Figure 7 of the paper sketches the
default decision tree: the budget gates expansion, the current and historic
classifications decide between the performance-optimized and compressed
encodings, and long-cold units drop out of tracking entirely.

A CSHF here is any callable ``HeuristicInput -> HeuristicDecision``.
Hybrid indexes ship their own tailored CSHF;
:func:`make_threshold_heuristic` builds the generic two-encoding tree that
both example indexes use as a default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.core.access import AccessStats, Classification


class HeuristicAction(enum.Enum):
    """What to do with a tracked unit after classification."""

    KEEP = "keep"                    # leave the encoding as-is
    MIGRATE = "migrate"              # change to ``target_encoding``
    STOP_TRACKING = "stop_tracking"  # evict the unit from the sample map


@dataclass(frozen=True)
class HeuristicInput:
    """Everything a CSHF may consult for one unit."""

    identifier: Hashable
    stats: AccessStats
    classification: Classification
    current_encoding: object
    budget_utilization: float  # used / limit; 0.0 when unbounded
    epoch: int


@dataclass(frozen=True)
class HeuristicDecision:
    """A CSHF verdict: keep, migrate to a target encoding, or evict."""

    action: HeuristicAction
    target_encoding: object = None

    @classmethod
    def keep(cls) -> "HeuristicDecision":
        """A KEEP decision."""
        return cls(HeuristicAction.KEEP)

    @classmethod
    def migrate(cls, target_encoding: object) -> "HeuristicDecision":
        """A MIGRATE decision toward ``target_encoding``."""
        return cls(HeuristicAction.MIGRATE, target_encoding)

    @classmethod
    def stop_tracking(cls) -> "HeuristicDecision":
        """A STOP_TRACKING decision."""
        return cls(HeuristicAction.STOP_TRACKING)


Heuristic = Callable[[HeuristicInput], HeuristicDecision]

# Defaults mirroring the prose around Figure 7: expansion requires budget
# headroom (utilization below 95%; the one ceiling for the CSHF and for an
# index's eager expansion on insert alike), compaction waits for two
# consecutive cold phases (one sampling miss may be noise), and a unit cold
# for the whole remembered history stops being tracked.
BUDGET_EXPAND_CEILING = 0.95
COLD_PHASES_TO_COMPACT = 2
COLD_PHASES_TO_FORGET = 8


def make_threshold_heuristic(
    fast_encoding: object,
    compact_encoding: object,
    cold_phases_to_compact: int = COLD_PHASES_TO_COMPACT,
    cold_phases_to_forget: int = COLD_PHASES_TO_FORGET,
) -> Heuristic:
    """Build the default two-encoding CSHF of Figure 7.

    * hot + budget headroom (utilization below
      :data:`BUDGET_EXPAND_CEILING`) -> ``fast_encoding``
    * hot but budget nearly exhausted -> keep (expansion would overshoot)
    * cold for ``cold_phases_to_compact`` consecutive phases ->
      ``compact_encoding``
    * cold for ``cold_phases_to_forget`` consecutive phases -> stop
      tracking (frees the aggregate slot)
    * anything else -> keep
    """

    def heuristic(info: HeuristicInput) -> HeuristicDecision:
        if info.classification is Classification.HOT:
            if info.current_encoding == fast_encoding:
                return HeuristicDecision.keep()
            if info.budget_utilization >= BUDGET_EXPAND_CEILING:
                return HeuristicDecision.keep()
            return HeuristicDecision.migrate(fast_encoding)
        # Cold path: the freshest classification is already in history.
        cold_streak = info.stats.cold_streak()
        if cold_streak >= cold_phases_to_forget:
            return HeuristicDecision.stop_tracking()
        if info.current_encoding != compact_encoding:
            if info.budget_utilization > 1.0:
                # Over budget: compact cold units immediately (Figure 7's
                # budget branch) instead of waiting out the cold streak.
                return HeuristicDecision.migrate(compact_encoding)
            if cold_streak >= cold_phases_to_compact:
                return HeuristicDecision.migrate(compact_encoding)
        return HeuristicDecision.keep()

    return heuristic
