"""RA005 silent fixture: every blocking shape routed off the loop."""

import asyncio
import functools
import typing


def _read(path):
    # Only ever handed to run_in_executor, never called from a coroutine.
    return path.read_bytes()


async def handle_request(loop, path, router):
    blob = await loop.run_in_executor(None, functools.partial(_read, path))
    value = await loop.run_in_executor(None, router.get, 1)
    await asyncio.sleep(0.01)
    return blob, value


async def drain(loop, shard):
    def work():
        # Sync closure: runs on the executor, off-loop by construction.
        with shard.op_lock:
            return shard.flush()

    return await loop.run_in_executor(None, work)


async def serialized(lock):
    async with lock:
        return 1


class Connection(asyncio.Protocol):
    def data_received(self, data):
        def work():
            # Handed to the executor and never called inline.
            return self.router.get_many(data)

        self.loop.run_in_executor(None, work).add_done_callback(self.reply)

    def reply(self, done):
        self.transport.write(b"ok")


class Shaped(typing.Protocol):
    # typing.Protocol is not asyncio.Protocol: nothing here runs on a loop.
    def load(self, path):
        return path.read_bytes()
