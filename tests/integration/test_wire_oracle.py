"""One model-based oracle through the wire, while everything underneath breaks.

Random GET/PUT/DELETE/SCAN go through ``NetClient`` to one in-process
``NetServer`` serving three durable tenants: ``olc`` (range),
``adaptive`` (range, two replicas) and ``dualstage`` (hash).  The model
is a dict per tenant plus the writes whose outcome is unknown: an acked
write must survive exactly; a failed or unanswered one may land either
way, and whatever recovery chose becomes the truth.  Every reply is
checked on arrival; at each quiescent point a full SCAN, sampled GETs,
STATS ``num_keys`` and every router's ``verify()`` must agree with it.

Underneath: a one-shot crash per round (cycling :data:`CAMPAIGN_SITES`),
torn final frames, checkpoints, split/merge and replica
``mark_down``/``revive`` racing client writes, and a client hanging up
mid-frame.  A crash is a kill: the server stops and every tenant is
recovered from disk (every :data:`RECOVERY_CRASH_EVERY`-th recovery
crashes mid-replay first).  Beside it each round arms one absorbed
site (:data:`ABSORBED_SITES`): a leaf migration of the ``adaptive``
tenant's copies or a Dual-Stage merge.  The live server must survive
that fault with no restart: a migration fault fails no request and
fences no copy, a merge fault fails only the writes whose batch
triggered the merge.  Concurrent rounds run two writers on disjoint key
stripes and two readers under ``setswitchinterval(1e-6)``.  A failure
names its seed and round: the op sequence repeats, thread interleavings
do not.
"""

import ast
import asyncio
import contextlib
import functools
import itertools
import math
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.project import call_name
from repro.durability import FAULT_SITES, DurabilityManager, WalPoisonedError
from repro.faults.injector import FaultInjector, InjectedFault
from repro.net import OP_PUT, ConnectionClosedError, NetClient, NetServer, Request
from repro.net import RequestError, encode_frame, encode_request, tenancy
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.service.partition import PartitionError

KEY_SPACE = 600
#: Writer ``w`` owns keys ``k % STRIPES == w``; the ``STABLE`` stripe is
#: only read while writers run, so concurrent readers check it exactly.
STRIPES = 3
STABLE = STRIPES - 1
#: Initial values equal their key; written values are unique and above
#: them, so any value read names the one write that produced it.
BASE_VALUE = 10**9
INITIAL = tuple((key, key) for key in range(0, KEY_SPACE, 2))
SPECS = (
    TenantSpec("olc", family="olc", partitioning="range", pairs=INITIAL),
    TenantSpec(
        "adaptive", family="adaptive", partitioning="range", replication_factor=2, pairs=INITIAL
    ),
    TenantSpec("dualstage", family="dualstage", partitioning="hash", pairs=INITIAL),
)
TENANTS = tuple(spec.name for spec in SPECS)
#: One pattern armed per round; the broad tail reaches crashes a
#: single-site arm cannot (a fault on the second checkpoint).
CAMPAIGN_SITES = FAULT_SITES + ("service.split.*", "service.merge.*", "durability.*")
REQUIRED_CRASH_SITES = FAULT_SITES[:4]  # wal.append, wal.apply, snapshot.swap, wal.truncate
FAULT_RATE = 0.35
#: Armed beside the crash site with no cap, alternating every crash-site
#: cycle so each meets every crash site and concurrent rounds.  Firing
#: one does not kill: the live server must absorb it.
ABSORBED_SITES = ("bptree.migrate.*", "dualstage.merge.*")
#: Load opening a round so that its absorbed site is crossed at all: a
#: Dual-Stage shard merges once its dynamic stage passes 5 % of its keys
#: (writes alone rarely get there between two kills), and a replica's
#: manager runs its first phase, and so migrates, after ~2 600 routed
#: reads.
MERGE_BURST = 24
MIGRATION_BURST = 3_000
HOT_WINDOW = 64
#: The reason the adversary's own ``mark_down`` gives.
FENCE_REASON = "wire oracle"
CONCURRENT_EVERY = 4
RECOVERY_CRASH_EVERY = 7
#: Sites no oracle arm reaches (a branch expansion needs a trie tenant),
#: by label prefix, and the test file that arms each.
UNIT_ARMED = {
    "trie.": "tests/hybridtrie/test_migration_faults.py",
}


class _ServerThread:
    """One ``NetServer`` on its own event-loop thread."""

    def __init__(self, directory):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = NetServer(directory)
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(timeout=60)

    def stop(self):
        if self.loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        # A kill leaves no survivor: the loop and the coalescer's writer
        # threads end before anything reopens the files they append to.
        writers = [t for t in threading.enumerate() if t.name.startswith("repro-net")]
        for thread in [self.thread, *writers]:
            thread.join(timeout=60)
            assert not thread.is_alive(), f"{thread.name} outlived the kill"
        self.loop.close()


class _RoundArms(FaultInjector):
    """One round's two arms: every crossing is counted here, then offered
    to the absorbed arm when it matches, else to the one-shot crash arm."""

    def __init__(self, crash, absorbed):
        super().__init__()  # an observer: it never fails a call itself
        self.crash, self.absorbed = crash, absorbed

    def check(self, site):
        super().check(site)
        (self.absorbed if self.absorbed.matches(site) else self.crash).check(site)


class WireOracle:
    """The model, the adversary and the seeded workload of one run."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.versions = itertools.count(BASE_VALUE)
        self.origin = {}  # written value -> (tenant, key)
        self.model = {tenant: dict(INITIAL) for tenant in TENANTS}
        self.uncertain = {tenant: {} for tenant in TENANTS}  # key -> {value | None}
        self.tally, self.hits = Counter(), Counter()
        self.crashes, self.absorbed = Counter(), Counter()  # per site
        self.round_number = 0
        self.directory = TenantDirectory(SPECS, durability_root=root)
        self.server = _ServerThread(self.directory)

    async def drive(self, rounds):
        await self.connect()
        for self.round_number in range(1, rounds + 1):
            concurrent = self.round_number % CONCURRENT_EVERY == 0
            self.write_failed = None  # the first write error of the round
            site = CAMPAIGN_SITES[self.round_number % len(CAMPAIGN_SITES)]
            cycle = self.round_number // len(CAMPAIGN_SITES)
            absorbed = ABSORBED_SITES[cycle % len(ABSORBED_SITES)]
            with self.armed(site, absorbed) as arms:
                rng = random.Random(self.rng.randrange(1 << 30))
                await self.open_round(absorbed, rng)
                phase = self.concurrent_phase if concurrent else self.sequential_phase
                admin_crashed, events = await phase(rng)
            self.tally["events"] += events
            crashed = arms.crash.failures_injected > 0
            fired = arms.absorbed.failures_by_site
            merge_failed = any(name.startswith("dualstage.") for name in fired)
            failure = self.write_failed or admin_crashed and "an admin op"
            assert crashed or merge_failed or not failure, (
                f"failed with no crash and no merge fault injected "
                f"(absorbed {fired}): {failure}"
            )
            await self.check_fences(crashed)
            if crashed:
                self.tally.update(crashes=1, events=1, concurrent_crashes=concurrent)
                await self.kill_and_recover()
            else:  # the live server absorbed it: checked with no restart
                self.absorbed.update(fired)
            await self.quiescent_check()
        await self.disconnect()

    async def open_round(self, absorbed, rng):
        """Pipelined PUTs of fresh Dual-Stage keys on every merge round; on
        each concurrent migration round, pipelined reads of a
        ``HOT_WINDOW`` of the ``adaptive`` tenant."""
        client = self.clients[0]
        if absorbed.startswith("dualstage."):
            keys = rng.sample(range(KEY_SPACE), MERGE_BURST)  # distinct: acks may reorder
            await asyncio.gather(*(self.put(client, "dualstage", key) for key in keys))
        elif self.round_number % CONCURRENT_EVERY == 0:
            start = rng.randrange(KEY_SPACE - HOT_WINDOW)
            keys = [start + rng.randrange(HOT_WINDOW) for _ in range(MIGRATION_BURST)]
            await asyncio.gather(*(self.get(client, "adaptive", key) for key in keys))

    async def sequential_phase(self, rng):
        client = self.clients[0]
        for _ in range(40):
            tenant, key, roll = rng.choice(TENANTS), rng.randrange(KEY_SPACE), rng.random()
            if roll < 0.35:
                await self.put(client, tenant, key)
            elif roll < 0.5:
                await self.delete(client, tenant, key)
            elif roll < 0.85:
                await self.get(client, tenant, key)
            else:
                await self.scan(client, tenant, key, rng.randrange(1, 40))
        if rng.random() < 0.25:
            await self.hang_up_mid_frame(rng)
        return self.admin(rng)

    async def concurrent_phase(self, rng):
        admin_rng, *rngs = (random.Random(rng.randrange(1 << 30)) for _ in range(5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        done = asyncio.Event()
        try:
            admin = asyncio.ensure_future(asyncio.to_thread(self.admin, admin_rng))
            readers = [
                asyncio.ensure_future(self.reader(client, reader_rng, done))
                for client, reader_rng in zip(self.clients[1:], rngs[STABLE:])
            ]
            writers = [self.writer(self.clients[0], w, rngs[w]) for w in range(STABLE)]
            await asyncio.gather(*writers, self.hang_up_mid_frame(rng))
            outcome = await admin
            done.set()
            await asyncio.gather(*readers)
        finally:
            sys.setswitchinterval(interval)
        return outcome

    async def writer(self, client, stripe, rng):
        for _ in range(24):
            tenant, key = rng.choice(TENANTS), rng.randrange(stripe, KEY_SPACE, STRIPES)
            if rng.random() < 0.75:
                await self.put(client, tenant, key)
            else:
                await self.delete(client, tenant, key)
            if rng.random() < 0.5:  # read your own write: no one else writes this key
                await self.get(client, tenant, key)

    async def reader(self, client, rng, done):
        while not done.is_set():
            tenant = rng.choice(TENANTS)
            if rng.random() < 0.75:
                await self.get(client, tenant, rng.randrange(STABLE, KEY_SPACE, STRIPES))
            else:
                start, count = rng.randrange(KEY_SPACE), rng.randrange(1, 40)
                await self.scan(client, tenant, start, count, racing=True)

    # -- client ops, each reply checked as it arrives ---------------------
    async def get(self, client, tenant, key):
        self.tally["ops"] += 1
        self.check_value(tenant, key, await client.get(tenant, key))

    async def scan(self, client, tenant, start, count, racing=False):
        self.tally["ops"] += 1
        self.check_scan(tenant, start, count, await client.scan(tenant, start, count), racing)

    async def put(self, client, tenant, key):
        value = next(self.versions)
        self.origin[value] = (tenant, key)
        await self.write(tenant, key, value, client.put(tenant, key, value))

    async def delete(self, client, tenant, key):
        allowed = self.allowed(tenant, key)
        removed = await self.write(tenant, key, None, client.delete(tenant, key))
        assert removed is None or removed in {value is not None for value in allowed}, (
            f"{tenant} DELETE {key} answered removed={removed}, model allows {allowed}"
        )

    async def write(self, tenant, key, value, request):
        """An acked write enters the model; a failed one becomes uncertain."""
        self.tally["ops"] += 1
        try:
            result = await request
        except (RequestError, ConnectionClosedError) as error:
            self.uncertain[tenant].setdefault(key, set()).add(value)
            self.write_failed = self.write_failed or f"{tenant} write of {key}: {error}"
            return None
        self.uncertain[tenant].pop(key, None)
        self.model[tenant][key] = value
        if value is None:
            del self.model[tenant][key]
        return result

    async def hang_up_mid_frame(self, rng):
        """A PUT cut off mid-frame must never land (its value has no origin)."""
        tenant, key = rng.choice(TENANTS), rng.randrange(STABLE, KEY_SPACE, STRIPES)
        frame = encode_frame(encode_request(Request(1, OP_PUT, tenant, key, next(self.versions))))
        _, writer = await asyncio.open_connection("127.0.0.1", self.server.server.port)
        writer.write(frame[: rng.randrange(1, len(frame))])
        await writer.drain()
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
        self.tally["events"] += 1

    # -- the model's rules -----------------------------------------------
    def allowed(self, tenant, key):
        return {self.model[tenant].get(key)} | self.uncertain[tenant].get(key, set())

    def check_value(self, tenant, key, value):
        allowed = self.allowed(tenant, key)
        assert value in allowed, f"{tenant} key {key} read {value!r}, model allows {allowed}"

    def check_scan(self, tenant, start, count, pairs, racing=False):
        """Ordered, in range, every value allowed, no known key skipped.  A
        ``racing`` scan ran beside writers: on their stripes a value need
        only come from some write to that very key."""
        keys = [key for key, _ in pairs]
        assert len(keys) <= count and keys == sorted(set(keys)), f"{tenant} scan {keys}"
        assert not keys or keys[0] >= start, f"{tenant} scan from {start} got {keys[0]}"
        for key, value in pairs:
            if racing and key % STRIPES != STABLE:
                source = (tenant, key) if value == key else self.origin.get(value)
                assert source == (tenant, key), f"{tenant} scan read {key}={value}"
            else:
                self.check_value(tenant, key, value)
        high = keys[-1] if len(keys) == count else math.inf
        skipped = sorted(
            key
            for key in self.model[tenant].keys() - set(keys)
            if start <= key <= high and not (racing and key % STRIPES != STABLE)
            and None not in self.allowed(tenant, key)
        )
        assert not skipped, f"{tenant} scan from {start} skipped acked keys {skipped}"

    async def quiescent_check(self):
        """A full scan resolves what recovery chose; sampled GETs, STATS and
        ``verify()`` must then agree with the model exactly."""
        client = self.clients[0]
        for tenant in TENANTS:
            pairs = await client.scan(tenant, 0, KEY_SPACE + 1)
            self.check_scan(tenant, 0, KEY_SPACE + 1, pairs)
            self.model[tenant] = dict(pairs)
            self.uncertain[tenant].clear()
            for key in self.rng.sample(range(KEY_SPACE), 16):
                self.check_value(tenant, key, await client.get(tenant, key))
            self.directory.router_for(tenant).verify()
        stats = (await client.stats())["tenants"]
        assert all(stats[t]["num_keys"] == len(self.model[t]) for t in TENANTS), stats

    async def check_fences(self, crashed):
        """Only the adversary fences a copy, or a crash site; an absorbed
        site never.  A replicated shard answers from a survivor, so STATS
        is the one place a copy that took an absorbed fault shows."""
        stats = await self.clients[0].stats()
        fenced = [
            copy["down_reason"]
            for shards in stats["shards"].values()
            for shard in shards
            for copy in shard.get("replicas", ())
            if copy["down"] and copy["down_reason"] != FENCE_REASON
        ]
        escaped = [r for r in fenced if any(p.rstrip("*") in r for p in ABSORBED_SITES)]
        assert not escaped and (crashed or not fenced), f"copies fenced: {fenced}"

    # -- the adversary -----------------------------------------------------
    @contextlib.contextmanager
    def armed(self, site, absorbed):
        """The round's crash arm on ``site`` beside its absorbed arm."""
        seed = self.rng.randrange(1 << 30)
        crash = FaultInjector(site=site, rate=FAULT_RATE, seed=seed, max_failures=1)
        absorbing = FaultInjector(site=absorbed, rate=FAULT_RATE, seed=seed + 1)
        with _RoundArms(crash, absorbing) as arms:
            yield arms
        self.hits.update(arms.calls_by_site)
        self.crashes.update(crash.failures_by_site)

    def admin(self, rng):
        """Checkpoints, split/merge and a replica toggle, beside client
        writes; returns ``(killed by a fault, events)``."""
        events = 0
        try:
            for tenant in [tenant for tenant in TENANTS if rng.random() < 0.6]:
                self.directory.router_for(tenant).checkpoint()
                events += 1
            for tenant in ("olc", "adaptive"):
                router = self.directory.router_for(tenant)
                count = router.num_shards
                with contextlib.suppress(PartitionError):  # no interior split key
                    if count >= 6 or (count > 2 and rng.random() < 0.4):
                        router.merge_shards(rng.randrange(count - 1))
                    else:
                        sizes = [shard.num_keys for shard in router.table.shards]
                        router.split_shard(sizes.index(max(sizes)))
                    events += 1
            shard = rng.choice(self.directory.router_for("adaptive").table.shards)
            down = [copy for copy in shard.replicas if copy.down]
            if not down:
                shard.mark_down(rng.choice(shard.replicas), FENCE_REASON)
                events += 1
            elif down[0].durable_log.wal.poisoned is None:  # else only recovery heals it
                shard.revive(down[0].replica_id)
                events += 1
        except (InjectedFault, WalPoisonedError):  # the fault, or a torn append's fence
            return True, events
        return False, events

    async def kill_and_recover(self):
        await self.disconnect()
        self.server.stop()
        self.directory.close()
        directory = None
        if self.tally["crashes"] % RECOVERY_CRASH_EVERY == 0:
            seed = self.rng.randrange(1 << 30)
            with FaultInjector(site="durability.wal.apply", rate=0.5, seed=seed, max_failures=1):
                try:
                    directory = TenantDirectory.recover(SPECS, self.root)
                except InjectedFault:
                    self.tally.update(recovery_crashes=1, events=1)
        self.directory = directory or TenantDirectory.recover(SPECS, self.root)
        for info in (self.directory.router_for(tenant).last_recovery for tenant in TENANTS):
            self.tally["torn_tails"] += info.get("torn_bytes", 0) > 0
            self.tally["replicas_rebuilt"] += info.get("replicas_rebuilt", 0)
        self.server = _ServerThread(self.directory)
        await self.connect()

    async def connect(self):
        port = self.server.server.port
        self.clients = [await NetClient.connect("127.0.0.1", port) for _ in range(3)]

    async def disconnect(self):
        for client in self.clients:
            await client.close()


def run_oracle(root, monkeypatch, seed, rounds):
    """Drive one seed for ``rounds`` rounds; every log tears its faulted appends."""
    tearing = functools.partial(DurabilityManager, tear_rng=random.Random(seed + 1))
    monkeypatch.setattr(tenancy, "DurabilityManager", tearing)
    oracle = WireOracle(root / f"seed-{seed}", seed)
    try:
        asyncio.run(oracle.drive(rounds))
    except (AssertionError, RequestError) as error:  # a read has no excuse to fail
        where = f"seed={seed} round={oracle.round_number} after {oracle.tally['ops']} ops"
        raise AssertionError(f"wire oracle {where}: {error}") from error
    finally:
        oracle.server.stop()
        oracle.directory.close()
    return oracle


def absorbed_faults(absorbed):
    """Absorbed faults per site family (``bptree.migrate``, ``dualstage.merge``)."""
    families = Counter()
    for site, count in absorbed.items():
        families[site.rsplit(".", 1)[0]] += count
    return families


def test_wire_oracle_short_run(tmp_path, monkeypatch):
    oracle = run_oracle(tmp_path, monkeypatch, seed=0, rounds=48)
    assert oracle.tally["crashes"] >= 10 and oracle.tally["concurrent_crashes"] >= 1
    assert absorbed_faults(oracle.absorbed)["bptree.migrate"] >= 1, oracle.absorbed


def test_only_an_uncertain_delete_excuses_a_missing_acked_key():
    oracle = WireOracle.__new__(WireOracle)  # the model alone: no server
    oracle.model, oracle.uncertain = {"olc": {4: 4}}, {"olc": {4: {BASE_VALUE}}}
    with pytest.raises(AssertionError, match="skipped acked keys"):
        oracle.check_scan("olc", 0, 10, [])  # a failed overwrite lost the key
    oracle.uncertain["olc"][4].add(None)
    oracle.check_scan("olc", 0, 10, [])


#: Shrunk ``(seed, rounds)`` of a bug the oracle found: a replica healed by recovery kept its
#: own lower LSN, so a stale copy won a later recovery's highest-LSN vote.
REGRESSION_SEEDS = ((28, 7), (35, 7))


@pytest.mark.parametrize("seed, rounds", REGRESSION_SEEDS)
def test_wire_oracle_regression_seed(tmp_path, monkeypatch, seed, rounds):
    run_oracle(tmp_path, monkeypatch, seed=seed, rounds=rounds)


REPO = Path(__file__).resolve().parents[2]


def fault_point_calls():
    """``(where, label)`` for every ``fault_point(...)`` call under
    ``src/repro``; ``label`` is None unless it is a string literal."""
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call) or call_name(node) != "fault_point":
                continue
            label = node.args[0] if node.args else None
            literal = isinstance(label, ast.Constant) and isinstance(label.value, str)
            yield f"{path.relative_to(REPO)}:{node.lineno}", label.value if literal else None


def armed_by(site):
    """The oracle arm or the test file that arms ``site`` (None: unarmed)."""
    if site.startswith(("durability.", "service.")):
        return "oracle: crash"
    if FaultInjector(site=ABSORBED_SITES).matches(site):
        return "oracle: absorbed"
    return next((path for prefix, path in UNIT_ARMED.items() if site.startswith(prefix)), None)


def test_every_fault_site_is_literal_and_armed():
    """Sites are enumerated by their labels, so a computed label would
    drop out of every coverage bar unseen, a new site needs an arm, and
    an arm whose sites are all gone is stale."""
    calls = list(fault_point_calls())
    assert calls
    assert [where for where, label in calls if label is None] == [], "non-literal labels"
    labels = [label for _, label in calls]
    stale = [prefix for prefix in UNIT_ARMED if not any(s.startswith(prefix) for s in labels)]
    assert stale == [], "unit arms with no live site"
    arms = {label: armed_by(label) for _, label in calls}
    assert [site for site, arm in arms.items() if arm is None] == [], "unarmed sites"
    unit_armed = {site: arm for site, arm in arms.items() if not arm.startswith("oracle")}
    assert [s for s, path in unit_armed.items() if s not in (REPO / path).read_text()] == []


@pytest.mark.slow
def test_wire_oracle_ten_seeds_meet_the_coverage_bars(tmp_path, monkeypatch):
    tally, hits, crashes, absorbed = Counter(), Counter(), Counter(), Counter()
    for seed in range(10):
        oracle = run_oracle(tmp_path, monkeypatch, seed=seed, rounds=160)
        assert oracle.tally["ops"] >= 10_000 and oracle.tally["events"] >= 200, oracle.tally
        tally, hits = tally + oracle.tally, hits + oracle.hits
        crashes, absorbed = crashes + oracle.crashes, absorbed + oracle.absorbed
    arms = {label: armed_by(label) for _, label in fault_point_calls()}
    families = absorbed_faults(absorbed)
    print(f"\nwire oracle, seeds 0-9: {dict(tally)}\nabsorbed_faults: {dict(families)}")
    print(f"{'fault site':<28}{'hits':>8}{'crashes':>9}{'absorbed':>10}  armed by")
    for site in sorted(arms):
        print(f"{site:<28}{hits[site]:>8}{crashes[site]:>9}{absorbed[site]:>10}  {arms[site]}")
    assert tally["crashes"] >= 1_000
    assert all(crashes[site] >= 1 for site, arm in arms.items() if arm == "oracle: crash")
    assert all(absorbed[site] >= 1 for site, arm in arms.items() if arm == "oracle: absorbed")
    assert all(crashes[site] >= 20 for site in REQUIRED_CRASH_SITES), crashes
    assert families["bptree.migrate"] >= 20 and families["dualstage.merge"] >= 5, families
    bars = ("recovery_crashes", "concurrent_crashes", "torn_tails")
    assert all(tally[name] >= 1 for name in bars) and tally["replicas_rebuilt"] >= 10, tally
