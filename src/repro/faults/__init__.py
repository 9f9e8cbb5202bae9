"""Deterministic fault injection for structure-modifying operations.

The paper's migrations run *online, under load*; the one thing they must
never do is corrupt the index.  This package provides the test scaffold
for that guarantee: migration, merge and durability paths declare named
*injection points* (:func:`fault_point`), and a seedable
:class:`FaultInjector` decides — deterministically — which of those
calls raise an :class:`InjectedFault`.  See ``docs/robustness.md``.
"""

from repro.faults.injector import (
    FaultInjector,
    InjectedFault,
    active_injector,
    fault_point,
)

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "active_injector",
    "fault_point",
]
