"""RA001 silent fixture: the sanctioned locking protocol, end to end."""


class GoodRouter:
    def ordered_locks(self, shard):
        with self._admin_lock:
            with shard.write_gate:
                with shard._guard():
                    table = self._table
                    shard.put(1, 1)

    def blocking_outside_locks(self, task):
        future = self._pool.submit(task)
        with self._admin_lock:
            self._generation += 1
        return future

    def captured_snapshot(self, key):
        table = self._table
        shard = table.shards[table.partitioner.shard_of(key)]
        return shard.get(key)
