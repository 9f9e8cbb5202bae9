"""Sample-size math (Equation 1) and the skip-length control.

Equation (1) of the paper gives the sample size needed for an
e-approximation of the top-k frequent items over ``n`` items with
reliability ``1 - delta``:

    |S| = (2 / eps^2) * ln((2n + k(n - k)) / delta)

Sampling itself follows Vitter's skip-counting idea: instead of flipping a
coin per access, a counter skips a fixed number of accesses between two
samples, so the per-access cost is a single decrement.  The countdown is
the manager's (:meth:`~repro.core.manager.AdaptationManager.is_sample`);
:func:`adjust_skip_length` sets its skip length between phases.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
