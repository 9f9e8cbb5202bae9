"""The index contract: how every layer above an index talks to it.

Every index family (B+-tree, OLC and adaptive B+-tree, Dual-Stage,
ART, FST, Hybrid Trie) subclasses :class:`IndexFamily` and is called
the same way by the service shards, the adaptation manager and the
harness — no caller probes for a method.

* **Class facts:** ``stats_family`` (the name in stats and spans),
  ``key_type`` (the one key type the family orders; the service refuses
  others before logging) and ``read_only`` (build-once families: the
  FST and the Hybrid Trie refuse ``insert``/``update``/``delete``).
* **State:** ``counters`` (the :class:`~repro.sim.counters.OpCounters`
  the cost model prices), ``manager`` (the
  :class:`~repro.core.manager.AdaptationManager`; None on static
  families), ``num_keys``, ``size_bytes()`` (modeled bytes) and
  ``encoding_census()`` (encoding -> ``(count, avg bytes)`` or a plain
  count).
* **Reads:** ``lookup``, ``lookup_many`` (one value per key: the
  per-key default below, which no family overrides), ``scan`` and
  ``items()`` (every pair, in key order).
* **Writes:** ``insert``, ``insert_many`` (a per-key default that only
  the OLC tree, whose one insert body it is, and the Dual-Stage index
  override), ``update``, ``delete``.
* **Checks and reports**, written once here: ``verify()`` raises
  :class:`~repro.core.invariants.InvariantViolation` on a corrupt
  structure, ``stats()`` returns one JSON-safe dict of the shape below
  (families append their own keys through ``super().stats()``) and
  ``describe()`` renders it as text::

    {
      "family":          "bptree_adaptive",
      "num_keys":        123456,
      "size_bytes":      1048576,
      "encoding_census": {"succinct": {"count": 10, "avg_bytes": 400.0}, ...},
      "counters":        {...},             # OpCounters snapshot
      "adaptation":      {...} | None,      # families with a manager
    }

``adaptation`` carries the decision trail the paper's Section 3
machinery produces: sampler state, migration history (from the
:class:`~repro.core.events.EventLog`), and quarantine/degradation
status.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.jsonable import to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import AdaptationManager
    from repro.sim.counters import OpCounters

RECENT_EVENTS_KEPT = 8


class IndexFamily:
    """The contract every index family implements (see the module doc).

    The family-specific members raise here; the checks and reports are
    the shared implementation.
    """

    stats_family: ClassVar[str] = "index"
    key_type: ClassVar[type] = object
    read_only: ClassVar[bool] = False
    manager: Optional["AdaptationManager"] = None
    counters: "OpCounters"

    @property
    def num_keys(self) -> int:
        raise NotImplementedError

    def size_bytes(self) -> int:
        raise NotImplementedError

    def encoding_census(self) -> Mapping[Any, Any]:
        raise NotImplementedError

    def items(self) -> Iterable[Tuple[Any, int]]:
        raise NotImplementedError

    def lookup(self, key: Any) -> Optional[int]:
        raise NotImplementedError

    def lookup_many(self, keys: Sequence[Any]) -> List[Optional[int]]:
        return [self.lookup(key) for key in keys]

    def scan(self, start_key: Any, count: int) -> List[Tuple[Any, int]]:
        raise NotImplementedError

    def insert(self, key: Any, value: int) -> object:
        raise TypeError(f"{self.stats_family} is read-only")

    def insert_many(self, pairs: Sequence[Tuple[Any, int]]) -> object:
        return [self.insert(key, value) for key, value in pairs]

    def update(self, key: Any, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        if self.lookup(key) is None:
            return False
        self.insert(key, value)
        return True

    def delete(self, key: Any) -> bool:
        raise TypeError(f"{self.stats_family} is read-only")

    def __len__(self) -> int:
        return self.num_keys

    def verify(self) -> None:
        """Prove structural integrity; raises
        :class:`~repro.core.invariants.InvariantViolation` listing every
        violated invariant (see :mod:`repro.core.invariants`)."""
        from repro.core.invariants import validate

        validate(self)

    def stats(self) -> Dict[str, Any]:
        """The uniform JSON-safe stats dict."""
        return base_stats(
            self.stats_family,
            num_keys=self.num_keys,
            size_bytes=self.size_bytes(),
            census=self.encoding_census(),
            counters_snapshot=self.counters.snapshot(),
            manager=self.manager,
        )

    def describe(self) -> str:
        """Human-readable rendering of :meth:`stats`."""
        return format_stats(self.stats())


def census_stats(census: Mapping[Any, Any]) -> Dict[str, Dict]:
    """Normalize an ``encoding_census()`` mapping into the stats shape."""
    normalized: Dict[str, Dict] = {}
    for encoding, entry in census.items():
        if isinstance(entry, tuple):
            count, avg_bytes = entry
        else:  # plain count (e.g. ART node census)
            count, avg_bytes = entry, None
        key = str(getattr(encoding, "value", encoding))
        normalized[key] = {"count": int(count)}
        if avg_bytes is not None:
            normalized[key]["avg_bytes"] = round(float(avg_bytes), 1)
    return normalized


def manager_stats(manager: Any, recent_events: int = RECENT_EVENTS_KEPT) -> Dict:
    """The adaptation block of ``stats()`` for one AdaptationManager."""
    counters = manager.counters
    recent = [event.as_dict() for event in manager.events.events[-recent_events:]]
    return {
        "epoch": manager.epoch,
        "skip_length": manager.skip_length,
        "sample_size": manager.sample_size,
        "tracked_units": manager.tracked_units,
        "accesses_seen": counters.accesses,
        "sampled": counters.sampled,
        "bloom_rejections": counters.bloom_rejections,
        "phases": counters.adaptation_phases,
        "quarantined_units": manager.quarantined_units,
        "degraded": manager.adaptation_degraded,
        "migration_history": {
            "expansions": counters.expansions,
            "compactions": counters.compactions,
            "migrations": counters.expansions + counters.compactions,
            "failures": counters.migration_failures,
            "quarantined": counters.quarantined_units,
            "recent_events": recent,
        },
    }


def base_stats(
    family: str,
    num_keys: int,
    size_bytes: int,
    census: Mapping[Any, Any],
    counters_snapshot: Dict[str, int],
    manager: Optional[Any] = None,
) -> Dict:
    """Assemble the uniform stats dict; family modules extend the result."""
    return {
        "family": family,
        "num_keys": int(num_keys),
        "size_bytes": int(size_bytes),
        "encoding_census": census_stats(census),
        "counters": to_jsonable(counters_snapshot),
        "adaptation": manager_stats(manager) if manager is not None else None,
    }


def format_stats(stats: Dict) -> str:
    """Render a ``stats()`` dict as the human-readable ``describe()`` text."""
    lines = [
        f"{stats['family']}: {stats['num_keys']:,} keys, "
        f"{_human_bytes(stats['size_bytes'])}"
    ]
    census = stats.get("encoding_census") or {}
    if census:
        parts = []
        for encoding, entry in sorted(census.items()):
            part = f"{encoding}={entry['count']}"
            if "avg_bytes" in entry:
                part += f" (~{_human_bytes(entry['avg_bytes'])} each)"
            parts.append(part)
        lines.append("  encodings: " + ", ".join(parts))
    adaptation = stats.get("adaptation")
    if adaptation:
        history = adaptation["migration_history"]
        lines.append(
            f"  adaptation: epoch {adaptation['epoch']}, "
            f"skip {adaptation['skip_length']}, "
            f"sample size {adaptation['sample_size']}, "
            f"{adaptation['tracked_units']} tracked units, "
            f"{adaptation['bloom_rejections']} bloom rejections"
        )
        lines.append(
            f"  migrations: {history['expansions']} expansions, "
            f"{history['compactions']} compactions, "
            f"{history['failures']} failures, "
            f"{adaptation['quarantined_units']} quarantined"
            + (" [ADAPTATION DISABLED]" if adaptation["degraded"] else "")
        )
    for key, value in stats.items():
        if key in ("family", "num_keys", "size_bytes", "encoding_census", "counters", "adaptation"):
            continue
        lines.append(f"  {key}: {value}")
    counters = stats.get("counters") or {}
    if counters:
        top = sorted(counters.items(), key=lambda item: -item[1])[:6]
        lines.append("  top counters: " + ", ".join(f"{k}={v:,}" for k, v in top))
    return "\n".join(lines)


def _human_bytes(count: float) -> str:
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:,.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{count:,.1f} GiB"  # pragma: no cover - unreachable
