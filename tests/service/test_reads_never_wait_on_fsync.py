"""A read of a durable tenant never waits on an ``fsync``.

``os.fsync`` is parked on an event while a write or a checkpoint of a
durable, two-copy adaptive tenant is inside it on another thread.  Reads
of the same shard must still answer — from the shard, and through the
wire server, whose GETs run on the event loop — while the parked PUT is
not acknowledged until the disk returns.  A kill at that moment (the
store's files copied as they stand) loses no acknowledged PUT.
"""

import asyncio
import os
import shutil
import threading

from repro.durability import wal
from repro.durability.manager import DurabilityManager
from repro.net import NetClient, NetServer
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.service.router import ShardRouter

KEYS = 200
WAIT_S = 10.0


class ParkedFsync:
    """Stands in for ``os.fsync``: every call blocks until :meth:`release`
    (later calls pass straight through)."""

    def __init__(self, monkeypatch):
        self.parked = threading.Event()
        self._released = threading.Event()
        real = os.fsync

        def fsync(fd):
            self.parked.set()
            assert self._released.wait(WAIT_S), "fsync parked past the test's patience"
            real(fd)

        # ``wal.os`` is the ``os`` module: the snapshot writer's fsync parks too.
        monkeypatch.setattr(wal.os, "fsync", fsync)

    def release(self):
        self._released.set()


def durable_router(root):
    """One shard, two adaptive copies, reads alternating between them."""
    return ShardRouter.build(
        [(key, key + 1) for key in range(0, 2 * KEYS, 2)],
        family="adaptive",
        num_shards=1,
        replica_profiles=["balanced", "balanced"],
        durability=DurabilityManager(root),
    )


def in_thread(call, *args):
    """Start ``call(*args)`` on a thread; returns it and its result box."""
    result = {}

    def run():
        result["value"] = call(*args)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, result


def reads_answer_while_parked(shard):
    """Four ``get_many`` batches (two per copy) from another thread: they
    must finish while the disk is still parked."""
    served = [copy.reads_routed for copy in shard.replicas]
    reader, result = in_thread(
        lambda: [shard.get_many([0, 2, 4]) for _ in range(4)]
    )
    reader.join(WAIT_S)
    assert not reader.is_alive(), "a read waited on the parked fsync"
    assert result["value"] == [[1, 3, 5]] * 4
    # Both copies answered, the one whose fsync is parked included.
    assert all(copy.reads_routed > before for copy, before in zip(shard.replicas, served))


def test_shard_get_many_answers_while_a_put_is_parked_in_fsync(tmp_path, monkeypatch):
    router = durable_router(tmp_path / "store")
    try:
        disk = ParkedFsync(monkeypatch)
        writer, _ = in_thread(router.put_many, [(1, 100)])
        assert disk.parked.wait(WAIT_S)
        reads_answer_while_parked(router.shard_for(1))
        assert writer.is_alive()  # the PUT is still inside its fsync
        disk.release()
        writer.join(WAIT_S)
        assert not writer.is_alive()
        assert router.get_many([1]) == [100]
    finally:
        router.close()


def test_a_get_completes_while_a_checkpoint_snapshot_is_parked(tmp_path, monkeypatch):
    router = durable_router(tmp_path / "store")
    try:
        router.put_many([(1, 100)])
        disk = ParkedFsync(monkeypatch)
        checkpoint, result = in_thread(router.checkpoint)
        assert disk.parked.wait(WAIT_S)
        reads_answer_while_parked(router.shard_for(1))
        assert checkpoint.is_alive()
        disk.release()
        checkpoint.join(WAIT_S)
        assert not checkpoint.is_alive()
        assert len(result["value"]["shards"]) == 2  # one snapshot per copy
    finally:
        router.close()


def test_a_kill_while_parked_loses_no_acked_put(tmp_path, monkeypatch):
    store, crashed = tmp_path / "store", tmp_path / "crashed"
    router = durable_router(store)
    try:
        acked = [(2 * key + 1, key) for key in range(20)]
        router.put_many(acked)
        disk = ParkedFsync(monkeypatch)
        writer, _ = in_thread(router.put_many, [(9001, 7)])
        assert disk.parked.wait(WAIT_S)
        # What a kill leaves: every file as it stands mid-fsync.
        shutil.copytree(store, crashed)
        disk.release()
        writer.join(WAIT_S)
        assert not writer.is_alive()
    finally:
        router.close()
    recovered = ShardRouter.recover(DurabilityManager(crashed), family="adaptive")
    try:
        keys = [key for key, _ in acked]
        assert recovered.get_many(keys) == [value for _, value in acked]
        assert recovered.get_many([9001]) in ([None], [7])  # never acked
    finally:
        recovered.close()


def test_a_wire_get_is_answered_while_a_put_to_its_tenant_is_parked(
    tmp_path, monkeypatch
):
    async def scenario():
        spec = TenantSpec(
            "alpha",
            num_shards=1,
            family="adaptive",
            pairs=[(key * 2, key * 2 + 1) for key in range(KEYS)],
            replication_factor=2,
        )
        directory = TenantDirectory([spec], durability_root=tmp_path)
        try:
            async with NetServer(directory) as server, await NetClient.connect(
                "127.0.0.1", server.port
            ) as client:
                disk = ParkedFsync(monkeypatch)
                put = asyncio.ensure_future(client.put("alpha", 1, 100))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, disk.parked.wait, WAIT_S)
                # The loop serves a GET of the same tenant meanwhile...
                assert await asyncio.wait_for(client.get("alpha", 0), WAIT_S) == 1
                # ...and the PUT is acknowledged only once the disk returns.
                assert not put.done()
                disk.release()
                await asyncio.wait_for(put, WAIT_S)
                return await asyncio.wait_for(client.get("alpha", 1), WAIT_S)
        finally:
            directory.close()

    assert asyncio.run(scenario()) == 100
