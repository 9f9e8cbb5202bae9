"""Sample-size math (Equation 1) and the skip-length sampler.

Equation (1) of the paper gives the sample size needed for an
e-approximation of the top-k frequent items over ``n`` items with
reliability ``1 - delta``:

    |S| = (2 / eps^2) * ln((2n + k(n - k)) / delta)

Sampling itself follows Vitter's skip-counting idea: instead of flipping a
coin per access, a counter skips a fixed number of accesses between two
samples, so the per-access cost is a single decrement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

from repro.obs.runtime import active_registry

DEFAULT_EPSILON = 0.05
DEFAULT_DELTA = 0.05
SKIP_MIN = 50
SKIP_MAX = 500


@lru_cache(maxsize=4096)
def _required_sample_size_cached(
    population: int, k: int, epsilon: float, delta: float
) -> int:
    numerator = 2 * population + k * (population - k)
    size = (2.0 / (epsilon * epsilon)) * math.log(numerator / delta)
    return max(1, math.ceil(size))


def required_sample_size(
    population: int,
    k: int,
    epsilon: float = DEFAULT_EPSILON,
    delta: float = DEFAULT_DELTA,
) -> int:
    """Equation (1): sample size for an error-bounded top-k approximation.

    ``population`` is ``n`` (for indexes: the number of trackable units,
    e.g. leaf nodes), ``k`` the number of items to identify, ``epsilon``
    the tolerated frequency error, and ``delta`` the failure probability.

    Epoch rollovers recompute this for an unchanged ``(population, k,
    epsilon, delta)`` tuple almost every time, so the log/ceil math is
    memoized behind an LRU cache.
    """
    if population <= 0:
        return 0
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    k = max(1, min(k, population))
    return _required_sample_size_cached(population, k, epsilon, delta)


@dataclass
class SkipSampler:
    """Skip-length access sampler.

    Every call to :meth:`is_sample` models one index access; every
    ``skip_length + 1``-th access is a sample.  ``skip_length = 0`` samples
    every access (the worst case of Figure 5).  The adaptation manager
    adjusts :attr:`skip_length` between phases; the new value takes effect
    when the current countdown expires, matching the thread-local reload
    from the global skip in Listing 1.
    """

    skip_length: int = SKIP_MIN

    def __post_init__(self) -> None:
        if self.skip_length < 0:
            raise ValueError(f"skip length must be >= 0, got {self.skip_length}")
        self._countdown = self.skip_length

    def is_sample(self) -> bool:
        """Return True when the current access should be sampled."""
        if self._countdown == 0:
            self._countdown = self.skip_length
            return True
        self._countdown -= 1
        return False

    def consume(self, count: int) -> List[int]:
        """Model ``count`` consecutive accesses in one call.

        Returns the 0-based offsets within the batch that would have been
        sampled by ``count`` individual :meth:`is_sample` calls — the
        sampler state afterwards is bit-identical to the per-access loop,
        but the cost is O(samples) instead of O(accesses): whole skip
        intervals are subtracted from the countdown at once.
        """
        if count < 0:
            raise ValueError(f"access count must be >= 0, got {count}")
        if count <= self._countdown:
            # The whole batch falls inside the current skip interval — the
            # common case for a single access, which the indexes' access
            # hooks pass through here as a batch of one.
            self._countdown -= count
            return []
        offsets: List[int] = []
        position = 0
        while position < count:
            if self._countdown == 0:
                offsets.append(position)
                self._countdown = self.skip_length
                position += 1
                continue
            step = self._countdown
            remaining = count - position
            if step >= remaining:
                self._countdown -= remaining
                break
            self._countdown = 0
            position += step
        return offsets

    def set_skip_length(self, skip_length: int) -> None:
        """Install a new skip length (takes effect at the next reload).

        Called between phases (never per access), so it is also where the
        sampler publishes its current stride into an installed metrics
        registry.
        """
        if skip_length < 0:
            raise ValueError(f"skip length must be >= 0, got {skip_length}")
        self.skip_length = skip_length
        registry = active_registry()
        if registry is not None:
            registry.gauge("sampler.skip_length").set(skip_length)
            registry.counter("sampler.skip_updates").inc()


def adjust_skip_length(
    current: int,
    migrated: int,
    sampled: int,
    lower_share: float = 0.10,
    upper_share: float = 0.30,
    factor: float = 2.0,
    skip_min: int = SKIP_MIN,
    skip_max: int = SKIP_MAX,
) -> int:
    """Adapt the skip length from observed workload stability.

    The paper uses the share of encoding migrations among sampled accesses
    as a stability proxy: below ``lower_share`` the workload is stable and
    the skip grows (less overhead); above ``upper_share`` the workload is
    shifting and the skip shrinks (faster adaptation).  The result is
    clamped to ``[skip_min, skip_max]``.
    """
    if sampled <= 0:
        return min(skip_max, max(skip_min, current))
    share = migrated / sampled
    if share < lower_share:
        proposed = int(current * factor)
    elif share > upper_share:
        proposed = int(current / factor)
    else:
        proposed = current
    return min(skip_max, max(skip_min, proposed))
