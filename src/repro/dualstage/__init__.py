"""The Dual-Stage hybrid index baseline (Zhang et al., SIGMOD 2016).

The comparison target of Figure 17: a *dynamic stage* (a regular Gapped
B+-tree) absorbs all writes, a compact read-only *static stage* holds the
bulk of the data, and a Bloom filter over the dynamic stage lets reads of
merged keys skip the first probe.  A background-style merge folds the
dynamic stage into the static one whenever it exceeds a size ratio.
"""

from repro.dualstage.index import DualStageIndex

__all__ = ["DualStageIndex"]
