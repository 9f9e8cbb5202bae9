"""Encoding-aware read routing across a shard's replicas.

The :class:`ReplicaRouter` answers one question per read batch: *which
replica prices this read class cheapest right now?*  Its score for a
replica is, in modeled nanoseconds per operation:

``score = measured_cost | census_prior  +  lag_penalty * behind``

* **measured_cost** — an EWMA of the replica's actual modeled cost for
  this read class, observed by pricing the replica's own structural
  counter deltas through the calibrated
  :class:`~repro.sim.costmodel.CostModel` on a skip-sampled subset of
  routed batches (every ``MEASURE_EVERY``-th).  This is the live
  ``repro.obs`` counter signal: the same events the metrics layer
  exports are what the router prices.
* **census_prior** — before any measurement exists, the replica's leaf
  encoding census priced per leaf visit (a Succinct-heavy copy is
  presumed slow, a Gapped-heavy copy fast), discounted once when the
  replica's profile declares an affinity for the class.  The prior only
  breaks the bootstrap symmetry; measurements take over immediately.
* **lag_penalty * behind** — a staleness penalty per write the replica
  missed while it was down, so a freshly revived copy is avoided until
  it has proven itself cheap again.

Down replicas are never candidates; a deterministic exploration rotation
(every ``EXPLORE_EVERY``-th pick) keeps the EWMAs of non-best replicas
fresh so the router can notice when divergence shifts the ranking.
No wall-clock enters any decision — scores are pure functions of
counters and census state, which keeps routing deterministic and
RA002-clean.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.obs.runtime import active_registry
from repro.service.shard import Replica, ReplicaSetUnavailableError, Shard
from repro.sim.costmodel import CostModel

#: The read classes the router scores separately.
READ_CLASSES = ("point", "scan")

#: RA004: literal instrument names for the routing layer.
_COUNTERS = {
    "point": "replication.reads.point",
    "scan": "replication.reads.scan",
    "explorations": "replication.explorations",
}
_REPLICAS_UP_GAUGE = "replication.replicas_up"

#: RA004: census encoding -> the cost-model event that prices one leaf
#: visit under that encoding (literal table, never formatted).
_LEAF_VISIT_EVENTS = {
    "succinct": "leaf_visit:succinct",
    "packed": "leaf_visit:packed",
    "gapped": "leaf_visit:gapped",
}

#: RA004: the structural events that constitute *read service cost*.
#: EWMA measurement prices only these — a sampled batch that happens to
#: trigger an adaptation phase must not charge the migration work to the
#: read class that tripped it, or specialists would look expensive
#: exactly when they are investing in getting cheaper.
_READ_COST_EVENTS = (
    "leaf_visit:succinct",
    "leaf_visit:packed",
    "leaf_visit:gapped",
    "inner_visit",
)

#: Modeled inner-node descent depth assumed by the census prior.
_PRIOR_INNER_LEVELS = 2

#: Multiplier applied once to the census prior of a replica whose
#: profile declares an affinity for the scored class.
_AFFINITY_DISCOUNT = 0.5

#: Weight of the newest measured batch in a replica's cost EWMA.
_EWMA_ALPHA = 0.25

#: Price the first batch routed to a replica and class, then every
#: ``MEASURE_EVERY``-th one.
MEASURE_EVERY = 8

#: Every ``EXPLORE_EVERY``-th pick of a class rotates over the live
#: replicas instead of taking the cheapest.
EXPLORE_EVERY = 32

#: Modeled ns/op added to a replica's score per write it missed while down.
_LAG_PENALTY_NS = 5.0


class ReplicaRouter:
    """Scores and picks the cheapest live replica for each read class."""

    def __init__(self, policy: str = "cost") -> None:
        if policy not in ("cost", "round_robin"):
            raise ValueError(
                f"unknown routing policy {policy!r}; expected 'cost' or 'round_robin'"
            )
        self._cost_model = CostModel()
        self.policy = policy
        #: Per-class pick counters (exploration cadence + round-robin).
        self._picks: Dict[str, int] = {cls: 0 for cls in READ_CLASSES}

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, replica: Replica, kind: str) -> float:
        """Modeled ns/op this replica is expected to charge ``kind``.

        The affinity discount applies to the *measured* cost too, not
        just the bootstrap prior: a specialist only gets cheap for its
        class by receiving that class's traffic, so the discount is what
        keeps the divergence feedback loop from collapsing into one
        replica monopolizing every read class it happened to win first.
        """
        measured = replica.cost_ewma.get(kind)
        base = measured if measured is not None else self._census_prior(replica, kind)
        if getattr(replica.profile, "affinity", None) == kind:
            base *= _AFFINITY_DISCOUNT
        return base + _LAG_PENALTY_NS * replica.behind

    def _census_prior(self, replica: Replica, kind: str) -> float:
        """Expected leaf cost from the replica's encoding mix alone."""
        census = replica.encoding_census()
        total = 0
        weighted = 0.0
        for encoding, entry in census.items():
            event = _LEAF_VISIT_EVENTS.get(str(encoding))
            if event is None:
                continue
            count = int(entry.get("count", 0)) if isinstance(entry, Mapping) else 0
            total += count
            weighted += count * self._cost_model.costs_ns.get(event, 0.0)
        if total > 0:
            leaf_ns = weighted / total
        else:
            leaf_ns = self._cost_model.costs_ns[_LEAF_VISIT_EVENTS["succinct"]]
        inner_ns = _PRIOR_INNER_LEVELS * self._cost_model.costs_ns.get("inner_visit", 0.0)
        return inner_ns + leaf_ns

    # ------------------------------------------------------------------
    # Picking
    # ------------------------------------------------------------------
    def pick(
        self, shard: Shard, kind: str, exclude: Sequence[Replica] = ()
    ) -> Replica:
        """The replica that should serve the next ``kind`` batch.

        ``exclude`` names live replicas that already failed this batch
        (the caller retries on the rest).  Raises
        :class:`~repro.service.shard.ReplicaSetUnavailableError` when
        every replica is down.
        """
        alive = [
            replica
            for replica in shard.replicas
            if not replica.down and replica not in exclude
        ]
        if not alive:
            raise ReplicaSetUnavailableError(
                f"all {len(shard.replicas)} replicas of shard "
                f"{shard.shard_id} are down"
            )
        self._picks[kind] = self._picks.get(kind, 0) + 1
        picks = self._picks[kind]
        explored = False
        if self.policy == "round_robin" or len(alive) == 1:
            choice = alive[picks % len(alive)]
        elif picks % EXPLORE_EVERY == 0:
            # Deterministic rotation over the non-best replicas keeps
            # their EWMAs fresh without a wall-clock or RNG.
            choice = alive[(picks // EXPLORE_EVERY) % len(alive)]
            explored = True
        else:
            choice = min(alive, key=lambda replica: self.score(replica, kind))
        choice.routed_batches[kind] = choice.routed_batches.get(kind, 0) + 1
        self._publish_pick_metrics(kind, len(alive), explored)
        return choice

    def should_measure(self, replica: Replica, kind: str) -> bool:
        """Skip-sampled measurement: price the first batch, then every
        ``MEASURE_EVERY``-th batch routed to this replica and class."""
        return replica.routed_batches.get(kind, 0) % MEASURE_EVERY == 1

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        replica: Replica,
        kind: str,
        events: Mapping[str, int],
        operations: int,
    ) -> None:
        """Fold one measured batch into the replica's cost EWMA.

        Only read-service events are priced (see ``_READ_COST_EVENTS``);
        adaptation work that rode along in the delta is the replica's
        investment, not the read's cost.
        """
        if operations <= 0:
            return
        service = {name: events[name] for name in _READ_COST_EVENTS if name in events}
        cost = self._cost_model.price_per_op(service, operations)
        previous = replica.cost_ewma.get(kind)
        if previous is None:
            replica.cost_ewma[kind] = cost
        else:
            replica.cost_ewma[kind] = previous + _EWMA_ALPHA * (cost - previous)

    # ------------------------------------------------------------------
    # Introspection and metrics
    # ------------------------------------------------------------------
    def describe(self, shard: Shard) -> List[Dict[str, object]]:
        """Per-replica score table (for stats and the ops console)."""
        return [
            {
                "replica": replica.replica_id,
                "profile": getattr(replica.profile, "name", None),
                "down": replica.down,
                "scores_ns": {
                    kind: round(self.score(replica, kind), 1)
                    for kind in READ_CLASSES
                },
            }
            for replica in shard.replicas
        ]

    def _publish_pick_metrics(self, kind: str, alive: int, explored: bool) -> None:
        registry = active_registry()
        if registry is None:
            return
        registry.counter(_COUNTERS[kind]).inc()
        if explored:
            registry.counter(_COUNTERS["explorations"]).inc()
        registry.gauge(_REPLICAS_UP_GAUGE).set(alive)
