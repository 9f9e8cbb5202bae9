"""Memory budgets and the budget-derived choice of k.

The framework accepts either an absolute budget (bytes) or a relative one
(bits per key), the latter being the natural choice for workloads with
inserts and deletes (Section 3.1.6).  The budget also determines ``k`` for
the top-k classification: the number of nodes that could be expanded to
the performance-optimized encoding without exceeding the budget,

    k = (mb - (n_c * m_c + n_u * m_u)) / (m_u - m_c)

with ``n_c``/``n_u`` compressed/uncompressed node counts and ``m_c``/
``m_u`` their average sizes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional


def estimate_expandable_k(
    budget_bytes: int,
    compressed_count: int,
    compressed_avg_bytes: float,
    expanded_count: int,
    expanded_avg_bytes: float,
) -> int:
    """The paper's k estimate: expandable nodes under ``budget_bytes``.

    Returns 0 when the index already exceeds the budget and is clamped to
    the number of still-compressed nodes (expanding more is impossible).
    """
    if budget_bytes <= 0:
        return 0
    current = compressed_count * compressed_avg_bytes + expanded_count * expanded_avg_bytes
    headroom = budget_bytes - current
    if headroom <= 0:
        return 0
    per_node_growth = expanded_avg_bytes - compressed_avg_bytes
    if per_node_growth <= 0:
        # Expansion is free under this size model; every node qualifies.
        return compressed_count
    return min(compressed_count, int(headroom / per_node_growth))


@dataclass(frozen=True)
class MemoryBudget:
    """An optional absolute or relative memory budget.

    Exactly one of ``absolute_bytes`` / ``bits_per_key`` may be set; with
    neither set the budget is unbounded (the adaptation manager then uses
    its fallback k).
    """

    absolute_bytes: int | None = None
    bits_per_key: float | None = None

    def __post_init__(self) -> None:
        if self.absolute_bytes is not None and self.bits_per_key is not None:
            raise ValueError("set either absolute_bytes or bits_per_key, not both")
        if self.absolute_bytes is not None and self.absolute_bytes <= 0:
            raise ValueError(f"absolute budget must be positive, got {self.absolute_bytes}")
        if self.bits_per_key is not None and self.bits_per_key <= 0:
            raise ValueError(f"relative budget must be positive, got {self.bits_per_key}")

    @classmethod
    def unbounded(cls) -> "MemoryBudget":
        """A budget with no limit at all."""
        return cls()

    @classmethod
    def absolute(cls, num_bytes: int) -> "MemoryBudget":
        """A fixed byte limit (read-mostly workloads)."""
        return cls(absolute_bytes=num_bytes)

    @classmethod
    def relative(cls, bits_per_key: float) -> "MemoryBudget":
        """A bits-per-key limit that scales with inserts (Section 3.1.6)."""
        return cls(bits_per_key=bits_per_key)

    @property
    def bounded(self) -> bool:
        """True when a limit is configured."""
        return self.absolute_bytes is not None or self.bits_per_key is not None

    def limit_bytes(self, num_keys: int) -> float:
        """The byte limit for an index currently holding ``num_keys`` keys."""
        if self.absolute_bytes is not None:
            return float(self.absolute_bytes)
        if self.bits_per_key is not None:
            return self.bits_per_key * num_keys / 8.0
        return float("inf")

    def exceeded(self, used_bytes: int, num_keys: int) -> bool:
        """True when ``used_bytes`` violates the budget."""
        return used_bytes > self.limit_bytes(num_keys)

    def utilization(self, used_bytes: int, num_keys: int) -> float:
        """``used / limit``; 0.0 for an unbounded budget."""
        limit = self.limit_bytes(num_keys)
        if limit == float("inf"):
            return 0.0
        return used_bytes / limit


class TokenBucket:
    """A rate limiter over a caller-supplied clock.

    The bucket holds up to ``burst`` tokens and refills at ``rate``
    tokens per second of *caller time*: every call passes ``now`` (any
    monotonically non-decreasing float — ``loop.time()`` in the asyncio
    front end, a virtual clock in tests), so the core stays free of
    wall-clock reads and the refill arithmetic is exactly testable.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = 0.0

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
            self.updated = now

    def try_take(self, amount: float, now: float) -> bool:
        """Consume ``amount`` tokens at time ``now``; False when broke."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def available(self, now: float) -> float:
        """Tokens that would be available at time ``now``."""
        self._refill(now)
        return self.tokens


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (None fields are unlimited).

    ``ops_per_sec`` caps the sustained operation rate through a
    :class:`TokenBucket` whose burst is ``burst_ops`` (default: one
    second's worth of tokens); ``max_inflight`` bounds the number of
    concurrently admitted requests — the *bounded queue* that replaces
    unbounded buffering: when it is full the front end answers with a
    backpressure response instead of parking the request.
    """

    ops_per_sec: Optional[float] = None
    burst_ops: Optional[float] = None
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ops_per_sec is not None and self.ops_per_sec <= 0:
            raise ValueError(f"ops_per_sec must be positive, got {self.ops_per_sec}")
        if self.burst_ops is not None and self.burst_ops <= 0:
            raise ValueError(f"burst_ops must be positive, got {self.burst_ops}")
        if self.burst_ops is not None and self.ops_per_sec is None:
            raise ValueError("burst_ops requires ops_per_sec")
        if self.max_inflight is not None and self.max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {self.max_inflight}")

    @classmethod
    def unlimited(cls) -> "TenantQuota":
        """A quota that admits everything."""
        return cls()

    def bucket(self) -> Optional[TokenBucket]:
        """A fresh token bucket for this quota (None when unlimited)."""
        if self.ops_per_sec is None:
            return None
        burst = self.burst_ops if self.burst_ops is not None else self.ops_per_sec
        return TokenBucket(self.ops_per_sec, burst)


#: Admission decisions, in the shape backpressure responses want.
ADMIT_OK = "ok"
SHED_THROTTLED = "throttled"      # ops/sec token bucket is empty
SHED_OVERLOADED = "overloaded"    # bounded inflight queue is full


class _TenantState:
    __slots__ = ("quota", "bucket", "inflight", "admitted", "throttled", "overloaded")

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.bucket = quota.bucket()
        self.inflight = 0
        self.admitted = 0
        self.throttled = 0
        self.overloaded = 0


#: Bytes every member of an absolute budget gets before the
#: key-proportional split, so an empty member cannot be starved.
MEMBER_FLOOR_BYTES = 64 * 1024


def _member_keys(index: Any) -> int:
    """Key count of one arbiter member (``num_keys`` or ``len``)."""
    keys = getattr(index, "num_keys", None)
    if keys is not None:
        return int(keys)
    return len(index)


def _member_bytes(index: Any) -> int:
    """Modeled bytes of one member (``used_memory`` or ``size_bytes``)."""
    used = getattr(index, "used_memory", None)
    if used is not None:
        return int(used())
    return int(index.size_bytes())


class ResourceArbiter:
    """The one arbiter of a served process, over two resources.

    * **memory** — the adaptation manager runs *per structure*, so one
      service-wide :class:`MemoryBudget` is carved into per-member
      budgets installed into the members' managers.  Owners register
      their members as a named group (a shard router its
      ``<prefix>shard-<n>``, again after every split/merge) through
      :meth:`replace_group`.  An unbounded or relative (bits per key)
      budget is handed to every member as is — a relative bound
      composes exactly; an absolute one gives each member a floor plus
      a key-proportional share of the rest, so hot large shards get
      headroom and empty ones cannot starve the others.
    * **admission** — per-tenant ops/sec token buckets plus a bounded
      inflight count (:class:`TenantQuota`).  :meth:`admit` is the one
      entry point the network front end calls per request; a non-``ok``
      decision becomes a backpressure *response*, never a queue entry.

    Admission state lives on one asyncio event loop in practice (plain
    int counters); membership changes serialize on a lock, and
    :meth:`rebalance` is cheap and idempotent.
    """

    def __init__(self, budget: Optional[MemoryBudget] = None) -> None:
        self.budget = budget or MemoryBudget.unbounded()
        self._members: Dict[str, Any] = {}
        #: Serializes membership changes: routers of different tenants
        #: share one arbiter and split/merge under their own admin locks.
        self._members_lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def replace_group(
        self, prefix: str, members: Mapping[str, Any]
    ) -> Dict[str, MemoryBudget]:
        """Swap every member named ``prefix…`` for ``members``, then rebalance.

        How one owner (a shard router) re-registers its slice after a
        split/merge without touching other owners' members.  The member
        map is replaced, never mutated, so a concurrent reader keeps
        iterating the map it started with.
        """
        with self._members_lock:
            kept = {
                name: index
                for name, index in self._members.items()
                if not name.startswith(prefix)
            }
            self._members = {**kept, **members}
            return self.rebalance()

    def rebalance(self) -> Dict[str, MemoryBudget]:
        """Compute per-member budgets and install them into managers.

        Members exposing a ``manager`` with a ``config.budget`` slot
        (the adaptive families) receive their allocation in place; the
        full allocation map is returned either way.
        """
        members = self._members
        allocations = self._allocate(members)
        for name, allocation in allocations.items():
            manager = getattr(members[name], "manager", None)
            if manager is not None:
                manager.config.budget = allocation
        return allocations

    def _allocate(self, members: Mapping[str, Any]) -> Dict[str, MemoryBudget]:
        if not members:
            return {}
        if self.budget.absolute_bytes is None:
            # Unbounded and relative budgets compose without arithmetic.
            return {name: self.budget for name in members}
        total_bytes = self.budget.absolute_bytes
        floor = min(MEMBER_FLOOR_BYTES, total_bytes // len(members))
        distributable = total_bytes - floor * len(members)
        keys_by_name = {name: _member_keys(index) for name, index in members.items()}
        total_keys = sum(keys_by_name.values())
        allocations: Dict[str, MemoryBudget] = {}
        for name in members:
            if total_keys > 0:
                share = distributable * keys_by_name[name] // total_keys
            else:
                share = distributable // len(members)
            allocations[name] = MemoryBudget.absolute(max(1, floor + share))
        return allocations

    # ------------------------------------------------------------------
    # Tenants and admission
    # ------------------------------------------------------------------
    def register_tenant(self, name: str, quota: Optional[TenantQuota] = None) -> None:
        """Add (or re-quota) one tenant; no quota admits everything."""
        self._tenants[name] = _TenantState(quota or TenantQuota.unlimited())

    def unregister_tenant(self, name: str) -> None:
        """Drop one tenant and its memory members."""
        self._tenants.pop(name, None)
        self.replace_group(f"{name}/", {})

    def tenants(self) -> List[str]:
        """Registered tenant names, sorted."""
        return sorted(self._tenants)

    def admit(self, tenant: str, ops: float = 1.0, now: float = 0.0) -> str:
        """Admit or shed one request costing ``ops`` operations.

        Returns :data:`ADMIT_OK`, :data:`SHED_THROTTLED` (rate), or
        :data:`SHED_OVERLOADED` (inflight bound).  An admitted request
        holds one inflight slot until :meth:`release`.  Unknown tenants
        raise ``KeyError`` — the front end maps that to its own
        unknown-tenant response.
        """
        state = self._tenants[tenant]
        quota = state.quota
        if quota.max_inflight is not None and state.inflight >= quota.max_inflight:
            state.overloaded += 1
            return SHED_OVERLOADED
        if state.bucket is not None and not state.bucket.try_take(ops, now):
            state.throttled += 1
            return SHED_THROTTLED
        state.inflight += 1
        state.admitted += 1
        return ADMIT_OK

    def release(self, tenant: str) -> None:
        """Return the inflight slot held by one admitted request."""
        state = self._tenants.get(tenant)
        if state is not None and state.inflight > 0:
            state.inflight -= 1

    def inflight(self, tenant: str) -> int:
        """Currently admitted, unreleased requests for ``tenant``."""
        return self._tenants[tenant].inflight

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """One JSON-safe summary of the memory carve, quotas and sheds."""
        members = self._members
        used = sum(_member_bytes(index) for index in members.values())
        keys = sum(_member_keys(index) for index in members.values())
        return {
            "memory": {
                "bounded": self.budget.bounded,
                "absolute_bytes": self.budget.absolute_bytes,
                "bits_per_key": self.budget.bits_per_key,
                "members": len(members),
                "used_bytes": used,
                "utilization": round(self.budget.utilization(used, keys), 4),
            },
            "tenants": {
                name: {
                    "ops_per_sec": state.quota.ops_per_sec,
                    "max_inflight": state.quota.max_inflight,
                    "inflight": state.inflight,
                    "admitted": state.admitted,
                    "throttled": state.throttled,
                    "overloaded": state.overloaded,
                }
                for name, state in sorted(self._tenants.items())
            },
        }
