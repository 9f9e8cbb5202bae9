"""The seedable fault injector and its injection-point hook.

Structure-modifying code (leaf re-encoding, trie expansion/compaction,
dual-stage merges, WAL and snapshot writes) calls :func:`fault_point` with a stable
site name at every step that could fail in a real system — allocation,
re-encoding, the pointer swap.  With no injector installed the call is a
near-free global check; under an installed :class:`FaultInjector` it may
raise :class:`InjectedFault` according to one of three deterministic
modes:

* **fail-at-nth-call** — ``fail_at=n`` arms the n-th matching call
  (1-indexed), reproducing one exact crash point;
* **fail-by-site** — ``site="trie.expand.swap"`` restricts any mode to
  one site (or a prefix with a trailing ``*``); a sequence of patterns
  arms every site matching *any* of them, which is how one injector
  targets a whole write path
  (``site=("durability.wal.append", "service.split.*")``);
* **failure-rate** — ``rate=p`` fails each matching call with
  probability ``p`` from a seeded PRNG, for randomized campaigns.

An injector with no failure mode configured is a pure *observer*: it
still counts every site it crosses, which is how tests enumerate the
injection points of an operation before parametrizing over them.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.obs.runtime import active_registry


class InjectedFault(RuntimeError):
    """Raised by an armed injection point; carries the site and call #."""

    def __init__(self, site: str, call_number: int) -> None:
        super().__init__(f"injected fault at {site!r} (matching call #{call_number})")
        self.site = site
        self.call_number = call_number


# The currently-installed injector; None keeps fault_point a cheap no-op.
_ACTIVE: Optional["FaultInjector"] = None


def fault_point(site: str) -> None:
    """Declare one injection point; raises under an armed injector."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)


def active_injector() -> Optional["FaultInjector"]:
    """The installed injector, or None."""
    return _ACTIVE


class FaultInjector:
    """Deterministic, seedable source of injected failures.

    Use as a context manager to install it for a code region::

        with FaultInjector(site="bptree.migrate.*", rate=0.2, seed=7) as inj:
            run_workload()
        assert inj.failures_injected > 0

    ``max_failures`` caps the total number of raises (the default ``None``
    never stops); a cap of 1 turns any mode into a one-shot crash.
    """

    def __init__(
        self,
        *,
        site: Union[str, Sequence[str], None] = None,
        fail_at: Optional[int] = None,
        rate: float = 0.0,
        seed: int = 0,
        max_failures: Optional[int] = None,
    ) -> None:
        if fail_at is not None and fail_at < 1:
            raise ValueError(f"fail_at is 1-indexed; got {fail_at}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if max_failures is not None and max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {max_failures}")
        self.site = site
        #: The site filter, normalized to a tuple of patterns (empty =
        #: match everything).  Kept separate from ``site`` so ``repr``
        #: and introspection show what the caller actually passed.
        self._site_patterns: Tuple[str, ...] = (
            (site,) if isinstance(site, str) else tuple(site) if site is not None else ()
        )
        for pattern in self._site_patterns:
            if not pattern:
                raise ValueError("site patterns must be non-empty strings")
        self.fail_at = fail_at
        self.rate = rate
        self.max_failures = max_failures
        self._rng = random.Random(seed)
        self.calls_by_site: Dict[str, int] = {}
        self.failures_by_site: Dict[str, int] = {}
        self.matching_calls = 0
        self.failures_injected = 0
        self._previous: Optional["FaultInjector"] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Make this the active injector (remembers any previous one)."""
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Restore whichever injector was active before :meth:`install`."""
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def matches(self, site: str) -> bool:
        """True when ``site`` passes this injector's site filter.

        With several patterns, matching *any* of them arms the site;
        each pattern is an exact name or a trailing-``*`` prefix.
        """
        if not self._site_patterns:
            return True
        for pattern in self._site_patterns:
            if pattern.endswith("*"):
                if site.startswith(pattern[:-1]):
                    return True
            elif site == pattern:
                return True
        return False

    def check(self, site: str) -> None:
        """Count the crossing of ``site``; raise when armed for it."""
        self.calls_by_site[site] = self.calls_by_site.get(site, 0) + 1
        if not self.matches(site):
            return
        self.matching_calls += 1
        if self.max_failures is not None and self.failures_injected >= self.max_failures:
            return
        should_fail = False
        if self.fail_at is not None and self.matching_calls == self.fail_at:
            should_fail = True
        elif self.rate > 0.0 and self._rng.random() < self.rate:
            should_fail = True
        if should_fail:
            self.failures_injected += 1
            self.failures_by_site[site] = self.failures_by_site.get(site, 0) + 1
            registry = active_registry()
            if registry is not None:
                registry.counter("faults.injected").inc()
                # repro: ignore[RA004] -- per-site labels are caller-supplied
                # and only formatted when a fault actually fires (cold path).
                registry.counter(f"faults.injected:{site}").inc()
            raise InjectedFault(site, self.matching_calls)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sites_seen(self) -> Dict[str, int]:
        """Site -> crossing count, for enumerating injection points."""
        return dict(self.calls_by_site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(site={self.site!r}, fail_at={self.fail_at}, "
            f"rate={self.rate}, injected={self.failures_injected})"
        )
