"""The paper's contribution: the workload-adaptation framework.

The central class is :class:`~repro.core.manager.AdaptationManager`.  A
hybrid index owns one manager, asks it :meth:`is_sample` on every access,
and forwards sampled accesses through :meth:`track`.  The manager
aggregates samples per basic unit (epoch-tagged, Bloom-filtered), runs an
error-bounded top-k hot/cold classification, consults a context-sensitive
heuristic function (CSHF), and drives encoding migrations through the
index's callback interface.
"""

from repro.core.access import AccessStats, AccessType, Classification
from repro.core.bloom import BloomFilter
from repro.core.budget import MemoryBudget, estimate_expandable_k
from repro.core.events import AdaptationEvent, EventLog
from repro.core.invariants import InvariantViolation, validate, violations_of
from repro.core.heuristics import (
    HeuristicDecision,
    HeuristicInput,
    make_threshold_heuristic,
)
from repro.core.manager import AdaptationManager, AdaptiveIndex, ManagerConfig
from repro.core.sampling import required_sample_size
from repro.core.topk import TopKClassifier
from repro.core.trained import train_offline

__all__ = [
    "AccessStats",
    "AccessType",
    "Classification",
    "BloomFilter",
    "MemoryBudget",
    "estimate_expandable_k",
    "AdaptationEvent",
    "EventLog",
    "InvariantViolation",
    "validate",
    "violations_of",
    "HeuristicDecision",
    "HeuristicInput",
    "make_threshold_heuristic",
    "AdaptationManager",
    "AdaptiveIndex",
    "ManagerConfig",
    "required_sample_size",
    "TopKClassifier",
    "train_offline",
]
