"""Built-in rules; importing this package registers them all."""

from repro.analysis.rules.ra001_locks import LockDisciplineRule
from repro.analysis.rules.ra002_hotpath import HotPathPurityRule
from repro.analysis.rules.ra004_telemetry import TelemetryHygieneRule
from repro.analysis.rules.ra005_async import AsyncPurityRule
from repro.analysis.rules.ra006_lockgraph import LockOrderGraphRule
from repro.analysis.rules.ra007_handles import HandleLifecycleRule

__all__ = [
    "LockDisciplineRule",
    "HotPathPurityRule",
    "TelemetryHygieneRule",
    "AsyncPurityRule",
    "LockOrderGraphRule",
    "HandleLifecycleRule",
]
