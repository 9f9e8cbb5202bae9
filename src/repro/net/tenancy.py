"""Tenant namespaces mapped onto shard groups.

Each tenant owns a private key namespace served by its own **shard
group** — a dedicated :class:`~repro.service.router.ShardRouter` whose
shard count is part of the tenant's spec, so a hot tenant can be
provisioned four shards while a long-tail tenant gets one.  Isolation
is structural: no composite keys, no cross-tenant collisions, and a
tenant's adaptation managers see exactly that tenant's skew — which is
the paper's premise (adaptation driven by the workload each index
actually observes) carried through to multi-tenant serving.

The directory also owns the service's one
:class:`~repro.core.budget.ResourceArbiter`, for admission: each
tenant's quota (ops/sec bucket + bounded inflight) is installed from
its spec, and the network front end asks the arbiter per request.
Memory is per copy, not per directory: every shard copy keeps the
budget its index builder set — the family factory's default, or, for
a tenant provisioned with ``replica_profiles``, its profile's (so a
plain ``adaptive`` tenant that needs a budget names a profile:
``TenantSpec(family="adaptive", replica_profiles=["balanced"])``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.budget import ResourceArbiter, TenantQuota
from repro.durability.manager import DurabilityManager
from repro.service.router import ShardRouter
from repro.service.shard import Pair


@dataclass(frozen=True)
class TenantSpec:
    """Provisioning for one tenant's shard group."""

    name: str
    num_shards: int = 2
    family: str = "olc"
    partitioning: str = "hash"
    quota: Optional[TenantQuota] = None
    pairs: Sequence[Pair] = field(default_factory=tuple)
    #: >1 provisions every shard as a replica set of divergently
    #: adapting copies (requires the ``"adaptive"`` family).
    replication_factor: int = 1
    replica_profiles: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if not self.name or len(self.name.encode("utf-8")) > 255:
            raise ValueError(f"tenant name {self.name!r} must be 1..255 UTF-8 bytes")
        if self.num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {self.num_shards}")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )


class TenantDirectory:
    """Tenant name -> shard group, plus the shared admission arbiter."""

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        durability_root: Optional[Union[str, Path]] = None,
    ) -> None:
        def build(spec: TenantSpec, durability: Optional[DurabilityManager]) -> ShardRouter:
            return ShardRouter.build(
                list(spec.pairs),
                family=spec.family,
                num_shards=spec.num_shards,
                partitioning=spec.partitioning,
                durability=durability,
                replication_factor=spec.replication_factor,
                replica_profiles=spec.replica_profiles,
            )

        self._open(specs, durability_root, build)

    @classmethod
    def recover(
        cls,
        specs: Sequence[TenantSpec],
        durability_root: Union[str, Path],
    ) -> "TenantDirectory":
        """Reopen every tenant's group from its tree under ``durability_root``
        after a crash (:meth:`ShardRouter.recover`: the manifest's layout,
        not the spec's), rejoined to a fresh arbiter under the spec's quota."""
        directory = cls.__new__(cls)

        def reopen(spec: TenantSpec, durability: Optional[DurabilityManager]) -> ShardRouter:
            assert durability is not None  # durability_root is required here
            return ShardRouter.recover(durability, spec.family)

        directory._open(specs, durability_root, reopen)
        return directory

    def _open(
        self,
        specs: Sequence[TenantSpec],
        durability_root: Optional[Union[str, Path]],
        make_router: Callable[[TenantSpec, Optional[DurabilityManager]], ShardRouter],
    ) -> None:
        if not specs:
            raise ValueError("a tenant directory needs at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.arbiter = ResourceArbiter()
        #: Tenant -> its shard group and the one key type the group's
        #: index family orders (:attr:`~repro.obs.introspect.IndexFamily
        #: .key_type`): what the front end reads for every request.
        #: Read-only outside this class.
        self.routes: Dict[str, Tuple[ShardRouter, type]] = {}
        self._specs: Dict[str, TenantSpec] = {}
        for spec in specs:
            durability = None
            if durability_root is not None:
                # One WAL/snapshot tree per tenant: groups recover
                # independently and a tenant's logs never interleave.
                durability = DurabilityManager(Path(durability_root) / spec.name)
            try:
                router = make_router(spec, durability)
            except BaseException:
                self.close()  # the groups already opened
                raise
            self.routes[spec.name] = (
                router,
                router.table.shards[0].replicas[0].index.key_type,
            )
            self._specs[spec.name] = spec
            self.arbiter.register_tenant(spec.name, spec.quota)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def router_for(self, tenant: str) -> ShardRouter:
        """The shard group serving ``tenant`` (KeyError when unknown)."""
        return self.routes[tenant][0]

    def __contains__(self, tenant: str) -> bool:
        return tenant in self.routes

    def tenants(self) -> List[str]:
        """All tenant names, sorted."""
        return sorted(self.routes)

    @property
    def num_shards(self) -> int:
        """Total shards across every group."""
        return sum(router.num_shards for router, _ in self.routes.values())

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every shard group (idempotent)."""
        for router, _ in self.routes.values():
            router.close()

    def __enter__(self) -> "TenantDirectory":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary of every tenant's group and quotas."""
        return {
            "tenants": {
                name: {
                    "num_shards": router.num_shards,
                    "num_keys": len(router),
                    "size_bytes": sum(
                        shard.size_bytes() for shard in router.table.shards
                    ),
                    "family": self._specs[name].family,
                }
                for name, (router, _) in sorted(self.routes.items())
            },
            "arbiter": self.arbiter.describe(),
        }


def demo_directory(
    tenants: Sequence[str],
    keys_per_tenant: int,
    num_shards: int = 2,
    family: str = "olc",
    quota: Optional[TenantQuota] = None,
    durability_root: Optional[Union[str, Path]] = None,
) -> TenantDirectory:
    """A synthetic directory: each tenant preloaded with even int keys.

    Keys are ``0, 2, 4, ...`` so loadgen misses (odd keys) and hits
    (even keys) are both reachable; values are ``key + 1``.  Used by
    the bench, the ``python -m repro.net`` server, and the tests.
    With ``durability_root``, every tenant group writes a per-shard WAL
    under it (the traced e2e chain exercises this path).
    """
    specs = [
        TenantSpec(
            name=name,
            num_shards=num_shards,
            family=family,
            quota=quota,
            pairs=[(key * 2, key * 2 + 1) for key in range(keys_per_tenant)],
        )
        for name in tenants
    ]
    return TenantDirectory(specs, durability_root=durability_root)
