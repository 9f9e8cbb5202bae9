"""Leaf encoding migrations and their cost accounting (Figure 9).

Migrating between the two plain layouts (Gapped <-> Packed) only copies
the key/value arrays; any migration involving the Succinct layout must
re-encode or decode every entry's physical representation, which is why
the paper measures those as markedly more expensive.  The counters bumped
here carry exactly that distinction so the cost model can price it.
"""

from __future__ import annotations

from repro.bptree.leaves import LeafEncoding, LeafNode
from repro.sim.counters import OpCounters

_RECODE_PAIRS = {
    (LeafEncoding.SUCCINCT, LeafEncoding.GAPPED),
    (LeafEncoding.GAPPED, LeafEncoding.SUCCINCT),
    (LeafEncoding.SUCCINCT, LeafEncoding.PACKED),
    (LeafEncoding.PACKED, LeafEncoding.SUCCINCT),
}


def migration_kind(source: LeafEncoding, target: LeafEncoding) -> str:
    """``recode`` when the physical representation changes, else ``cheap``."""
    return "recode" if (source, target) in _RECODE_PAIRS else "cheap"


#: Precomputed ``migration:<src>-><dst>`` and ``migration_entry:<kind>``
#: counter names per encoding pair (never formatted per migration).
_MIGRATION_EVENTS = {
    (source, target): (
        f"migration:{source}->{target}",
        f"migration_entry:{migration_kind(source, target)}",
    )
    for source in LeafEncoding
    for target in LeafEncoding
    if source is not target
}


def migrate_leaf(
    leaf: LeafNode,
    target: LeafEncoding,
    counters: OpCounters | None = None,
) -> bool:
    """Re-encode ``leaf`` in place; returns False for a no-op migration."""
    source = leaf.encoding
    if source is target:
        return False
    migrated = leaf.migrate_to(target)
    if migrated and counters is not None:
        migration_event, entry_event = _MIGRATION_EVENTS[source, target]
        counts = counters.counts
        counts[migration_event] += 1
        counts[entry_event] += leaf.num_entries()
    return migrated
