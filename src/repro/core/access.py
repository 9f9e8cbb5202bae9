"""Access types, per-unit access statistics, and classification history.

This mirrors the ``AccessStats`` structure of the paper's Listing 1: read
and write counters grouped by access type, the epoch of the last access,
and a small bitset remembering the most recent hot/cold classifications
(the paper keeps the last eight in one byte).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AccessType(enum.Enum):
    """The access kinds the adaptation manager distinguishes."""

    READ = "read"
    SCAN = "scan"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    @property
    def is_write(self) -> bool:
        """True for insert/update/delete accesses."""
        return self in (AccessType.INSERT, AccessType.UPDATE, AccessType.DELETE)


class Classification(enum.Enum):
    """Outcome of a top-k classification for one tracked unit."""

    HOT = "hot"
    COLD = "cold"


HISTORY_BITS = 8


@dataclass
class AccessStats:
    """Aggregated sampled accesses for one basic unit (e.g. a leaf node).

    ``history`` is a bitset of the last :data:`HISTORY_BITS`
    classifications, newest in the least-significant bit (1 = hot).
    ``context`` carries index-specific information needed for migrations
    (for B+-tree leaves: the parent inner node).
    """

    reads: int = 0
    writes: int = 0
    last_epoch: int = 0
    history: int = 0
    epochs_tracked: int = 0
    context: object = None
    extras: dict = field(default_factory=dict)

    def record(self, access_type: AccessType, epoch: int) -> None:
        """Register one sampled access during ``epoch``.

        If the stored epoch is stale the counters are reset first, so the
        aggregate always describes the *current* sampling phase only.
        """
        if self.last_epoch != epoch:
            self.reads = 0
            self.writes = 0
            self.last_epoch = epoch
        if access_type.is_write:
            self.writes += 1
        else:
            self.reads += 1

    def frequency(self) -> int:
        """Classification priority: reads and writes count alike."""
        return self.reads + self.writes

    def push_classification(self, classification: Classification) -> None:
        """Shift ``classification`` into the history bitset."""
        bit = 1 if classification is Classification.HOT else 0
        mask = (1 << HISTORY_BITS) - 1
        self.history = ((self.history << 1) | bit) & mask
        self.epochs_tracked = min(self.epochs_tracked + 1, HISTORY_BITS)

    def hot_streak(self) -> int:
        """Consecutive most-recent phases classified hot."""
        streak = 0
        history = self.history
        for _ in range(min(self.epochs_tracked, HISTORY_BITS)):
            if history & 1:
                streak += 1
                history >>= 1
            else:
                break
        return streak

    def cold_streak(self) -> int:
        """Consecutive most-recent phases classified cold."""
        streak = 0
        history = self.history
        for _ in range(min(self.epochs_tracked, HISTORY_BITS)):
            if history & 1:
                break
            streak += 1
            history >>= 1
        return streak

    def hot_count(self) -> int:
        """Number of hot classifications within the remembered window."""
        window = self.history & ((1 << min(self.epochs_tracked, HISTORY_BITS)) - 1)
        return window.bit_count()

    def size_bytes(self) -> int:
        """Modeled footprint of one aggregate in the C++ layout.

        Two 4-byte counters, a 4-byte epoch, one history byte, and an
        8-byte context pointer.
        """
        return 4 + 4 + 4 + 1 + 8
