"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`Objective` declares an error budget over a cumulative signal
already flowing through the :class:`~repro.obs.metrics.MetricsRegistry`:

* **latency** — "p99 of ``net.request_seconds`` < 10ms" becomes
  *at most 1% of observations may exceed 0.01s*: ``threshold_s=0.01``,
  ``target=0.01``, counted straight off the histogram's cumulative
  buckets (align the threshold with a bucket boundary; observations in
  a straddling bucket count as bad, so the estimate is conservative);
* **ratio** — "shed rate < 5%" becomes *bad counters / total counter ≤
  0.05*: ``bad=("net.shed.throttled", "net.shed.overloaded")``,
  ``total="net.requests"``, ``target=0.05``.

:class:`SloMonitor` samples the cumulative (bad, total) pairs on every
:meth:`~SloMonitor.observe` tick and evaluates the *burn rate* — the
fraction of the error budget being spent, ``(Δbad/Δtotal) / target`` —
over a fast and a slow sliding window (the standard multi-window
alerting shape: the fast window catches a new fire quickly, the slow
window stops a brief blip from paging).  A run younger than a window
uses its oldest sample as the baseline, so short loadgen runs still
page under sustained overload.  States:

=========  ===================================================
``ok``     burn below ``WARN_BURN`` on either window
``warn``   both windows at or above ``WARN_BURN``
``page``   both windows at or above ``PAGE_BURN``
=========  ===================================================

The windows are :data:`FAST_WINDOW_S` and :data:`SLOW_WINDOW_S` of the
caller's clock: every ``observe`` passes ``now``.

Every tick publishes labeled gauges — ``slo.burn_fast`` /
``slo.burn_slow`` / ``slo.state`` with an ``objective`` label — so the
alert state rides the Prometheus export and the STATS snapshot for free.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: RA004: literal gauge names for the alerting surface.
_BURN_FAST_GAUGE = "slo.burn_fast"
_BURN_SLOW_GAUGE = "slo.burn_slow"
_STATE_GAUGE = "slo.state"

STATES: Tuple[str, ...] = ("ok", "warn", "page")
_STATE_VALUES = {state: value for value, state in enumerate(STATES)}

#: The multi-window alerting shape: burn rates over the last minute and
#: the last ten, warning at budget pace and paging at six times it.
FAST_WINDOW_S = 60.0
SLOW_WINDOW_S = 600.0
WARN_BURN = 1.0
PAGE_BURN = 6.0

_OBJECTIVE_NAME = re.compile(r"^[a-z0-9_]+$")


@dataclass(frozen=True)
class Objective:
    """One declarative objective over registry instruments."""

    name: str
    kind: str  # "latency" | "ratio"
    target: float  # allowed bad fraction (the error budget)
    description: str = ""
    histogram: str = ""  # latency: source histogram instrument
    threshold_s: float = 0.0  # latency: good/bad boundary, in seconds
    bad: Tuple[str, ...] = ()  # ratio: numerator counters
    total: str = ""  # ratio: denominator counter

    def __post_init__(self) -> None:
        if not _OBJECTIVE_NAME.match(self.name):
            raise ValueError(f"objective name {self.name!r} must be [a-z0-9_]+")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"objective {self.name!r}: target must be in (0, 1)")
        if self.kind == "latency":
            if not self.histogram or self.threshold_s <= 0.0:
                raise ValueError(
                    f"objective {self.name!r}: latency kind needs histogram + threshold_s"
                )
        elif self.kind == "ratio":
            if not self.bad or not self.total:
                raise ValueError(
                    f"objective {self.name!r}: ratio kind needs bad counters + total"
                )
        else:
            raise ValueError(f"objective {self.name!r}: unknown kind {self.kind!r}")

    def cumulative(self, registry: MetricsRegistry) -> Tuple[float, float]:
        """Current cumulative ``(bad, total)`` for this objective."""
        if self.kind == "latency":
            histogram = registry.get_histogram(self.histogram)
            if histogram is None:
                return 0.0, 0.0
            within = bisect_right(histogram.boundaries, self.threshold_s)
            good = sum(histogram.bucket_counts[:within])
            return float(histogram.count - good), float(histogram.count)
        total_counter = registry.get_counter(self.total)
        if total_counter is None:
            return 0.0, 0.0
        bad = 0.0
        for name in self.bad:
            counter = registry.get_counter(name)
            if counter is not None:
                bad += counter.value
        # Sheds are not part of the served-total counter semantics here:
        # the denominator is all requests seen, bad is the shed subset.
        return bad, float(total_counter.value)


def latency_objective(
    name: str,
    histogram: str,
    threshold_s: float,
    target: float = 0.01,
    description: str = "",
) -> Objective:
    """Budget ``target`` of observations above ``threshold_s``."""
    return Objective(
        name=name,
        kind="latency",
        target=target,
        histogram=histogram,
        threshold_s=threshold_s,
        description=description,
    )


def ratio_objective(
    name: str,
    bad: Sequence[str],
    total: str,
    target: float,
    description: str = "",
) -> Objective:
    """Budget ``target`` of ``total`` events landing in ``bad`` counters."""
    return Objective(
        name=name,
        kind="ratio",
        target=target,
        bad=tuple(bad),
        total=total,
        description=description,
    )


def default_net_objectives(
    p99_s: float = 0.01, shed_target: float = 0.05
) -> List[Objective]:
    """The stock serving-path objectives the net server monitors."""
    return [
        latency_objective(
            "net_request_p99",
            histogram="net.request_seconds",
            threshold_s=p99_s,
            target=0.01,
            description=f"p99 request latency < {p99_s * 1000:g}ms",
        ),
        ratio_objective(
            "net_shed_rate",
            bad=("net.shed.throttled", "net.shed.overloaded"),
            total="net.requests",
            target=shed_target,
            description=f"admission shed rate < {shed_target:.0%}",
        ),
    ]


@dataclass
class _Sample:
    at: float
    bad: float
    total: float


class SloMonitor:
    """Evaluates objectives over sliding windows; publishes burn gauges."""

    def __init__(self, objectives: Sequence[Objective]) -> None:
        if not objectives:
            raise ValueError("SloMonitor needs at least one objective")
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.objectives = list(objectives)
        self._samples: Dict[str, Deque[_Sample]] = {name: deque() for name in names}
        self._status: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def observe(self, registry: MetricsRegistry, now: float) -> Dict[str, str]:
        """Take one sample at time ``now``; returns ``{objective: state}``."""
        states: Dict[str, str] = {}
        for objective in self.objectives:
            samples = self._samples[objective.name]
            bad, total = objective.cumulative(registry)
            samples.append(_Sample(now, bad, total))
            horizon = now - SLOW_WINDOW_S
            while len(samples) > 2 and samples[1].at <= horizon:
                samples.popleft()
            burn_fast = self._burn(samples, now, FAST_WINDOW_S, objective.target)
            burn_slow = self._burn(samples, now, SLOW_WINDOW_S, objective.target)
            effective = min(burn_fast, burn_slow)
            if effective >= PAGE_BURN:
                state = "page"
            elif effective >= WARN_BURN:
                state = "warn"
            else:
                state = "ok"
            states[objective.name] = state
            self._status[objective.name] = {
                "kind": objective.kind,
                "target": objective.target,
                "description": objective.description,
                "state": state,
                "burn_fast": burn_fast,
                "burn_slow": burn_slow,
                "bad": bad,
                "total": total,
            }
            labels = {"objective": objective.name}
            registry.gauge(_BURN_FAST_GAUGE, "fast-window burn rate", labels).set(
                burn_fast
            )
            registry.gauge(_BURN_SLOW_GAUGE, "slow-window burn rate", labels).set(
                burn_slow
            )
            registry.gauge(_STATE_GAUGE, "0=ok 1=warn 2=page", labels).set(
                _STATE_VALUES[state]
            )
        return states

    @staticmethod
    def _burn(
        samples: "Deque[_Sample]", now: float, window: float, target: float
    ) -> float:
        newest = samples[-1]
        baseline = samples[0]
        cutoff = now - window
        for sample in samples:
            if sample.at <= cutoff:
                baseline = sample
            else:
                break
        delta_total = newest.total - baseline.total
        if delta_total <= 0:
            return 0.0
        delta_bad = newest.bad - baseline.bad
        return (delta_bad / delta_total) / target

    # ------------------------------------------------------------------
    def state_of(self, objective: str) -> str:
        """Latest state for ``objective`` (``ok`` before the first tick)."""
        status = self._status.get(objective)
        return str(status["state"]) if status is not None else "ok"

    def worst_state(self) -> str:
        """The most severe state across objectives."""
        worst = 0
        for status in self._status.values():
            worst = max(worst, _STATE_VALUES[str(status["state"])])
        return STATES[worst]

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of objectives, burn rates, and states."""
        return {
            "windows": {
                "fast_s": FAST_WINDOW_S,
                "slow_s": SLOW_WINDOW_S,
                "warn_burn": WARN_BURN,
                "page_burn": PAGE_BURN,
            },
            "worst": self.worst_state(),
            "objectives": {name: dict(status) for name, status in self._status.items()},
        }
