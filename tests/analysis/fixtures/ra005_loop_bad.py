"""RA005 firing fixture: blocking work under the loop's own callbacks."""

import asyncio
import os
import time


def _sync_log(handle):
    # Reached transitively from Connection.connection_made.
    os.fsync(handle.fileno())


class Connection(asyncio.Protocol):
    def connection_made(self, transport):
        _sync_log(transport.log)

    def data_received(self, data):
        time.sleep(0.01)


class Batcher:
    # Not a protocol and no coroutine: only call_soon makes _flush a root.
    def enqueue(self, loop, router, keys):
        loop.call_soon(self._flush, loop, router, keys)

    def _flush(self, loop, router, keys):
        values = router.get_many(keys)
        return self._run(loop, lambda: values, router.durable)

    def _run(self, loop, call, durable):
        def work():
            return call()

        if durable:
            return loop.run_in_executor(None, work)
        return work()


async def handler(path):
    def helper():
        # Never handed to an executor: it runs where handler runs.
        return path.read_bytes()

    return helper()
