"""The crash-recovery fault campaign for the durable service.

One long-lived on-disk store is hammered by rounds of writes, deletes,
checkpoints, and online split/merge while a seeded
:class:`~repro.faults.injector.FaultInjector` arms one crash site per
round — cycling through every durability fault point
(``durability.wal.append`` / ``.apply`` / ``.snapshot.swap`` /
``.truncate`` / ``.manifest.swap``) and the ``service.split.*`` /
``service.merge.*`` admin sites.  An injected fault is treated as a
**kill**: the live router is abandoned mid-operation (some rounds with
writer threads and an admin thread racing at the moment of death), the
store is recovered from disk, and the recovered state is checked three
ways:

1. ``ShardRouter.verify()`` — structural invariants plus the routing
   discipline on every key;
2. **model comparison** — a plain dict tracks every *acknowledged*
   write; after recovery, every acked key must hold exactly its acked
   value (anything else is a lost write), and every recovered key must
   be explainable (anything else is a phantom);
3. **in-flight resolution** — keys whose op faulted before
   acknowledgment may legally land either way (the record may or may
   not have reached the WAL); recovery resolves them and the recovered
   value becomes the model's truth, exactly the contract a client that
   never got an ack must assume.

Some recoveries are themselves killed (the injector armed over the
``durability.wal.apply`` replay site) and then retried — recovery must
be idempotent under its own crashes.  Torn final frames are simulated
honestly: the WAL's ``tear_rng`` writes a random *prefix* of the dying
group commit, which recovery must skip and count.

The campaign's acceptance bar (ISSUE 6): ≥1000 injected crashes, every
named durability site crashed at least once, crashes during concurrent
split/merge included, and **zero** lost acknowledged writes.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.durability import FAULT_SITES, DurabilityManager, WalPoisonedError
from repro.faults.injector import FaultInjector, InjectedFault
from repro.service.partition import PartitionError
from repro.service.router import ShardRouter

#: What kills a campaign thread: the armed fault itself, or the fence a
#: sibling's torn append left on a shared shard's WAL.  Either way the
#: op was never acknowledged, so its keys become in-flight uncertainty.
_CRASH_ERRORS = (InjectedFault, WalPoisonedError)

#: The sites the campaign cycles through, one armed per round.  The
#: trailing broad patterns shake out interleavings a single-site arm
#: cannot reach (e.g. a fault on the second of two checkpoints).
CAMPAIGN_SITES: Tuple[str, ...] = FAULT_SITES + (
    "service.split.*",
    "service.merge.*",
    "durability.*",
)

#: Sites the acceptance criteria require to have crashed at least once.
REQUIRED_CRASH_SITES: Tuple[str, ...] = (
    "durability.wal.append",
    "durability.wal.apply",
    "durability.snapshot.swap",
    "durability.wal.truncate",
)

#: Marker for "key not present" in model/recovered comparisons.
_ABSENT = object()

_MAX_SHARDS = 6


class CampaignFailure(AssertionError):
    """The durability contract was violated (lost/phantom write or a
    failed post-recovery verification)."""


def _recovered_state(router: ShardRouter) -> Dict[Any, int]:
    state: Dict[Any, int] = {}
    for shard in router.table.shards:
        state.update(dict(shard.items()))
    return state


class _WriterOutcome:
    """What one writer thread acked (in order) and what was in flight."""

    def __init__(self) -> None:
        self.acked: List[Tuple[Any, Optional[int]]] = []  # value None = delete
        self.uncertain: Dict[Any, Set[int]] = {}
        self.uncertain_deletes: Set[Any] = set()
        self.crashed = False


def _run_writer(
    router: ShardRouter,
    rng: random.Random,
    key_lo: int,
    key_hi: int,
    version_base: int,
    bursts: int,
    outcome: _WriterOutcome,
) -> None:
    """Issue write bursts until done or the armed fault kills this thread.

    The faulting op is always the thread's last (the injector is the
    kill), so acked ops happen-before every uncertain one — which is
    what lets the campaign apply acked ops first and mark uncertainty
    afterwards.
    """
    version = version_base
    for burst in range(bursts):
        batch = [
            (rng.randrange(key_lo, key_hi), version + offset)
            for offset in range(rng.randrange(8, 40))
        ]
        version += len(batch)
        try:
            router.put_many(batch)
        except _CRASH_ERRORS:
            for key, value in batch:
                outcome.uncertain.setdefault(key, set()).add(value)
            outcome.crashed = True
            return
        for key, value in batch:
            outcome.acked.append((key, value))
        if burst % 3 == 2:
            key = rng.randrange(key_lo, key_hi)
            try:
                router.delete(key)
            except _CRASH_ERRORS:
                outcome.uncertain_deletes.add(key)
                outcome.crashed = True
                return
            outcome.acked.append((key, None))


def _run_admin(router: ShardRouter, rng: random.Random, outcome: _WriterOutcome) -> None:
    """Checkpoints and split/merge on the admin path; faults kill it."""
    try:
        for _ in range(2):
            router.checkpoint()
            num_shards = router.num_shards
            if num_shards >= _MAX_SHARDS or (num_shards > 2 and rng.random() < 0.4):
                router.merge_shards(rng.randrange(num_shards - 1))
            else:
                table = router.table
                sizes = [shard.num_keys for shard in table.shards]
                target = max(range(len(sizes)), key=sizes.__getitem__)
                router.split_shard(target)
    except _CRASH_ERRORS:
        outcome.crashed = True
    except PartitionError:
        # Too few keys / no interior split key this round; not a crash.
        pass


def _apply_outcome(
    model: Dict[Any, int],
    uncertain: Dict[Any, Set[Any]],
    outcome: _WriterOutcome,
) -> None:
    for key, value in outcome.acked:
        uncertain.pop(key, None)
        if value is None:
            model.pop(key, None)
        else:
            model[key] = value
    for key, values in outcome.uncertain.items():
        uncertain.setdefault(key, set()).update(values)
    for key in outcome.uncertain_deletes:
        uncertain.setdefault(key, set()).add(_ABSENT)


def _check_recovery(
    recovered: Dict[Any, int],
    model: Dict[Any, int],
    uncertain: Dict[Any, Set[Any]],
    crash_number: int,
) -> None:
    """Lost/phantom detection, then in-flight resolution into the model."""
    for key, value in model.items():
        actual = recovered.get(key, _ABSENT)
        if key in uncertain:
            if actual is not _ABSENT and actual == value:
                continue
            if actual in uncertain[key]:
                continue
            raise CampaignFailure(
                f"crash #{crash_number}: key {key!r} recovered as {actual!r}, "
                f"expected acked {value!r} or in-flight {sorted(map(repr, uncertain[key]))}"
            )
        if actual != value:
            raise CampaignFailure(
                f"crash #{crash_number}: LOST acknowledged write — key {key!r} "
                f"acked as {value!r} but recovered as {actual!r}"
            )
    for key, actual in recovered.items():
        if key in model:
            continue
        if key in uncertain and actual in uncertain[key]:
            continue
        raise CampaignFailure(
            f"crash #{crash_number}: PHANTOM key {key!r} = {actual!r} recovered "
            "but never written"
        )
    # In-flight ops are now resolved: what recovery materialized is what
    # the store durably committed, and becomes the model's truth.
    for key in uncertain:
        actual = recovered.get(key, _ABSENT)
        if actual is _ABSENT:
            model.pop(key, None)
        else:
            model[key] = int(actual)
    uncertain.clear()


def experiment_crash_campaign(
    num_crashes: int = 1000,
    num_keys: int = 1200,
    seed: int = 0,
    sync: str = "batch",
    family: str = "olc",
    concurrent_every: int = 4,
    recovery_crash_every: int = 7,
    root: Optional[Path] = None,
    assert_coverage: bool = True,
) -> Dict[str, Any]:
    """Run the crash-recovery campaign; returns its summary dict.

    Raises :class:`CampaignFailure` the moment a lost acknowledged
    write, phantom key, or post-recovery verification failure appears.
    With ``assert_coverage`` (and ``num_crashes`` ≥ 100), also requires
    every :data:`REQUIRED_CRASH_SITES` entry to have produced at least
    one crash and at least one crash to have hit a concurrent round.
    """
    rng = random.Random(seed)
    own_root = root is None
    store_root = Path(tempfile.mkdtemp(prefix="repro-crash-campaign-")) if own_root else root
    assert store_root is not None
    key_space = num_keys * 4
    try:
        durability = DurabilityManager(
            store_root, sync=sync, retain=2, tear_rng=random.Random(seed + 1)
        )
        initial = [(key, key) for key in range(0, key_space, 4)][:num_keys]
        router = ShardRouter.build(
            initial,
            family=family,
            num_shards=2,
            partitioning="range",
            durability=durability,
        )
        model: Dict[Any, int] = dict(initial)
        uncertain: Dict[Any, Set[Any]] = {}

        crashes = 0
        rounds = 0
        concurrent_crashes = 0
        recovery_crashes = 0
        torn_tails_recovered = 0
        snapshots_skipped = 0
        frames_replayed = 0
        crashes_by_site: Dict[str, int] = {}
        version = 1_000_000

        while crashes < num_crashes:
            rounds += 1
            site = CAMPAIGN_SITES[rounds % len(CAMPAIGN_SITES)]
            concurrent = rounds % concurrent_every == 0
            injector = FaultInjector(
                site=site, rate=0.35, seed=rng.randrange(1 << 30), max_failures=1
            )
            outcomes: List[_WriterOutcome] = []
            with injector.install():
                if concurrent:
                    # Two writers on disjoint key ranges plus an admin
                    # thread, so the armed site can fire mid split/merge
                    # with acknowledgments racing it.
                    writer_outcomes = [_WriterOutcome(), _WriterOutcome()]
                    admin_outcome = _WriterOutcome()
                    half = key_space // 2
                    threads = [
                        threading.Thread(
                            target=_run_writer,
                            args=(
                                router,
                                random.Random(rng.randrange(1 << 30)),
                                0,
                                half,
                                version,
                                6,
                                writer_outcomes[0],
                            ),
                        ),
                        threading.Thread(
                            target=_run_writer,
                            args=(
                                router,
                                random.Random(rng.randrange(1 << 30)),
                                half,
                                key_space,
                                version + 1_000,
                                6,
                                writer_outcomes[1],
                            ),
                        ),
                        threading.Thread(
                            target=_run_admin,
                            args=(router, random.Random(rng.randrange(1 << 30)), admin_outcome),
                        ),
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    outcomes = [*writer_outcomes, admin_outcome]
                    version += 2_000
                else:
                    outcome = _WriterOutcome()
                    _run_writer(router, rng, 0, key_space, version, 4, outcome)
                    version += 1_000
                    if not outcome.crashed:
                        _run_admin(router, rng, outcome)
                    outcomes = [outcome]
            for outcome in outcomes:
                _apply_outcome(model, uncertain, outcome)
            if not any(outcome.crashed for outcome in outcomes):
                continue

            # --- the kill -------------------------------------------------
            crashes += 1
            if concurrent:
                concurrent_crashes += 1
            for fault_site, count in injector.failures_by_site.items():
                crashes_by_site[fault_site] = crashes_by_site.get(fault_site, 0) + count
            router.close()

            # --- recovery (occasionally killed and retried) ---------------
            recovered_router: Optional[ShardRouter] = None
            if crashes % recovery_crash_every == 0:
                replay_injector = FaultInjector(
                    site="durability.wal.apply",
                    rate=0.5,
                    seed=rng.randrange(1 << 30),
                    max_failures=1,
                )
                try:
                    with replay_injector.install():
                        recovered_router = ShardRouter.recover(durability, family=family)
                except InjectedFault:
                    recovery_crashes += 1
                    recovered_router = None
            if recovered_router is None:
                recovered_router = ShardRouter.recover(durability, family=family)
            router = recovered_router
            summary = router.last_recovery or {}
            frames_replayed += int(summary.get("frames_replayed", 0))
            snapshots_skipped += int(summary.get("snapshots_skipped", 0))
            if int(summary.get("torn_bytes", 0)) > 0:
                torn_tails_recovered += 1

            # --- the three checks -----------------------------------------
            try:
                router.verify()
            except Exception as error:
                raise CampaignFailure(
                    f"crash #{crashes}: post-recovery verify() failed: {error}"
                ) from error
            _check_recovery(_recovered_state(router), model, uncertain, crashes)

        router.close()
        summary_dict: Dict[str, Any] = {
            "crashes": crashes,
            "rounds": rounds,
            "concurrent_crashes": concurrent_crashes,
            "recovery_crashes": recovery_crashes,
            "torn_tails_recovered": torn_tails_recovered,
            "frames_replayed": frames_replayed,
            "snapshots_skipped": snapshots_skipped,
            "crashes_by_site": dict(sorted(crashes_by_site.items())),
            "lost_writes": 0,
            "phantom_writes": 0,
            "final_keys": len(model),
            "final_shards": router.num_shards,
            "sync": sync,
            "family": family,
            "seed": seed,
        }
        if assert_coverage and num_crashes >= 100:
            missing = [
                site for site in REQUIRED_CRASH_SITES if crashes_by_site.get(site, 0) == 0
            ]
            if missing:
                raise CampaignFailure(
                    f"campaign never crashed at required sites {missing}; "
                    f"observed {sorted(crashes_by_site)}"
                )
            if concurrent_crashes == 0:
                raise CampaignFailure("campaign produced no crash in a concurrent round")
        return summary_dict
    finally:
        if own_root:
            shutil.rmtree(store_root, ignore_errors=True)
