"""Tests for the concurrent sampling strategies."""

import threading

from repro.core.access import AccessType
from repro.core.concurrency import (
    ConcurrentSampler,
    GlobalSampling,
    ThreadLocalSampling,
)


def run_threads(worker, count):
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestGlobalSampling:
    def test_single_thread_aggregation(self):
        strategy = GlobalSampling()
        strategy.record("a", AccessType.READ, epoch=1)
        strategy.record("a", AccessType.INSERT, epoch=1)
        strategy.record("b", AccessType.READ, epoch=1)
        assert strategy.sampled_count() == 3
        samples = strategy.drain()
        assert samples["a"].reads == 1
        assert samples["a"].writes == 1
        assert samples["b"].reads == 1
        assert strategy.sampled_count() == 0

    def test_multithreaded_counts_complete(self):
        strategy = GlobalSampling()

        def worker(thread_index):
            for step in range(500):
                strategy.record(step % 7, AccessType.READ, epoch=1)

        run_threads(worker, 4)
        assert strategy.sampled_count() == 2000
        samples = strategy.drain()
        assert sum(stats.reads for stats in samples.values()) == 2000

    def test_drain_counts_phase_lock(self):
        strategy = GlobalSampling()
        strategy.drain()
        assert strategy.counters.global_phase_locks == 1

    def test_memory_scales_with_entries(self):
        strategy = GlobalSampling()
        for unit in range(100):
            strategy.record(unit, AccessType.READ, epoch=1)
        assert strategy.memory_bytes() == 100 * (8 + 8 + 21)


class TestThreadLocalSampling:
    def test_single_thread_aggregation(self):
        strategy = ThreadLocalSampling()
        strategy.record("a", AccessType.READ, epoch=1)
        strategy.record("a", AccessType.READ, epoch=1)
        merged = strategy.drain()
        assert merged["a"].reads == 2

    def test_merge_combines_thread_maps(self):
        strategy = ThreadLocalSampling()

        def worker(thread_index):
            for step in range(300):
                strategy.record(step % 5, AccessType.READ, epoch=1)

        run_threads(worker, 4)
        assert strategy.sampled_count() == 1200
        merged = strategy.drain()
        assert sum(stats.reads for stats in merged.values()) == 1200
        assert len(merged) == 5
        assert strategy.sampled_count() == 0

    def test_merge_counted(self):
        strategy = ThreadLocalSampling()
        strategy.drain()
        assert strategy.counters.merges == 1

    def test_memory_includes_per_map_overhead(self):
        strategy = ThreadLocalSampling()
        barrier = threading.Barrier(4)

        def worker(thread_index):
            strategy.record(thread_index, AccessType.READ, epoch=1)
            # Keep all four threads alive together so thread ids (and thus
            # thread-local stores) cannot be recycled mid-test.
            barrier.wait()

        run_threads(worker, 4)
        # Four thread maps, each with fixed bucket-array overhead.
        assert strategy.memory_bytes() >= 4 * 64 * 8

    def test_sampled_count_survives_a_thread_registering_mid_sum(self):
        strategy = ThreadLocalSampling()

        class RegisteringStore:
            """A store whose first ``count`` read registers another thread."""

            def __init__(self):
                self.map = {}
                self.registered = False

            @property
            def count(self):
                if not self.registered:
                    self.registered = True
                    worker = threading.Thread(
                        target=strategy.record, args=("a", AccessType.READ, 1)
                    )
                    worker.start()
                    worker.join()
                return 1

        strategy._stores[-1] = RegisteringStore()
        assert strategy.sampled_count() == 1  # the stores as the sum began
        assert strategy.sampled_count() == 2


class TestConcurrentSampler:
    def test_rate_per_thread(self):
        sampler = ConcurrentSampler(skip_length=4)
        outcomes = [sampler.is_sample() for _ in range(10)]
        assert sum(outcomes) == 2

    def test_threads_have_independent_countdowns(self):
        sampler = ConcurrentSampler(skip_length=9)
        results = {}

        def worker(thread_index):
            results[thread_index] = sum(sampler.is_sample() for _ in range(100))

        run_threads(worker, 4)
        assert all(count == 10 for count in results.values())

    def test_skip_zero(self):
        sampler = ConcurrentSampler(skip_length=0)
        assert all(sampler.is_sample() for _ in range(5))

    def test_invalid_skip(self):
        import pytest

        with pytest.raises(ValueError):
            ConcurrentSampler(skip_length=-1)
        sampler = ConcurrentSampler()
        with pytest.raises(ValueError):
            sampler.set_skip_length(-5)
