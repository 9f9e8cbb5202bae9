"""RA001 firing fixture: every lock-discipline violation in one router."""


class BadRouter:
    def inverted_order(self, shard):
        # op lock (rank 2) taken first, then the gate (rank 1) under it.
        with shard._guard():
            with shard.write_gate:
                shard.put(1, 1)

    def blocking_under_lock(self, task):
        with self._admin_lock:
            self._pool.submit(task)

    def uncaptured_subscript(self, shard_id):
        return self._table.shards[shard_id]

    def uncaptured_routing(self, key):
        return self._table.partitioner.shard_of(key)
