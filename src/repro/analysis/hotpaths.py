"""The hot-path root registry for the RA002 purity rule.

The call graph cannot see through dynamic dispatch (``self.index
.lookup(...)``, ``leaf.storage.lookup(...)``), so the per-operation hot
paths are *declared* here instead of inferred: every entry names a set
of functions that the PR-3 observability contract treats as wall-clock
free, and RA002 analyzes everything lexically reachable from them.

A :class:`HotRoot` pairs a dotted module prefix with an ``fnmatch``
pattern over the function's local qualified name (``Class.method`` or
``function``).  The defaults cover the index families' read/write entry
points, the leaf probe/decode layer, the succinct primitives they lean
on, and the access sampler — extend the tuple (or pass custom
roots to :class:`~repro.analysis.rules.ra002_hotpath
.HotPathPurityRule`) when a new family lands.  The registry is
documented in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, List, Tuple

from repro.analysis.project import FunctionInfo, Project, in_scope


@dataclass(frozen=True)
class HotRoot:
    """One registered hot-path entry point (or family of them)."""

    module_prefix: str
    pattern: str

    def matches(self, info: FunctionInfo) -> bool:
        return in_scope(info.module_name, (self.module_prefix,)) and fnmatchcase(
            info.local_name, self.pattern
        )


#: Families with both a read and a write path; the trie families below
#: are built once and only ever looked up and scanned.
_MUTABLE_FAMILY_PREFIXES: Tuple[str, ...] = (
    "repro.bptree",
    "repro.art",
    "repro.dualstage",
)

#: The registered hot roots: reachability for RA002 starts here.  Every
#: entry must match a live function (``tests/analysis/test_self_clean.py``
#: checks): a root that matches nothing silently un-checks its family.
DEFAULT_HOT_ROOTS: Tuple[HotRoot, ...] = tuple(
    [
        HotRoot(prefix, pattern)
        for prefix in _MUTABLE_FAMILY_PREFIXES
        for pattern in ("*lookup*", "*insert*", "*scan*")
    ]
    + [
        HotRoot(prefix, pattern)
        for prefix in ("repro.fst", "repro.hybridtrie")
        for pattern in ("*lookup*", "*scan*")
    ]
    + [
        # Leaf scan layer: reads that families dispatch to dynamically
        # (invisible to the call graph; the leaf probes are `*lookup*`).
        HotRoot("repro.bptree.leaves", "*.pairs_from"),
        # The FOR-blocked run's read path, which the Succinct leaf and
        # the Dual-Stage static stage inherit or dispatch to.  Its search
        # (``ForRun._find``, a plain ``self.`` call) reads the packed
        # buffers by shift and mask and calls no accessor.
        HotRoot("repro.succinct", "*lookup*"),
        HotRoot("repro.succinct", "*.pairs_from"),
        # Succinct primitives the FST navigation kernel reaches by
        # attribute dispatch (``__getitem__`` is also a FOR block's
        # random access).
        HotRoot("repro.succinct", "*.__getitem__"),
        HotRoot("repro.succinct", "*.next1"),
        HotRoot("repro.succinct", "*.word_slice"),
        HotRoot("repro.succinct", "*.rank*"),
        HotRoot("repro.succinct", "*.select*"),
        HotRoot("repro.succinct", "*decode*"),
        # The per-access sample gate (Listing 1 of the paper).
        HotRoot("repro.core.manager", "AdaptationManager.is_sample"),
    ]
)


def hot_root_qualnames(
    project: Project, roots: Iterable[HotRoot] = DEFAULT_HOT_ROOTS
) -> List[str]:
    """Qualnames of every project function a registered root matches."""
    root_list = list(roots)
    return sorted(
        info.qualname
        for info in project.functions.values()
        if any(root.matches(info) for root in root_list)
    )
