"""The batch runner and persistent pools: caching, accounting, races."""

import os
import threading
import time

from repro.core import workers
from repro.core.workers import (
    WorkerPool,
    cached_module,
    get_pool,
    pool_stats,
    pooled,
    run_batch,
    shutdown_pools,
    timed_call,
)

SOURCE = """
int x = 0;
int main() { x = 1; return x; }
"""
OTHER = """
int y = 7;
int main() { return y; }
"""


class TestModuleCache:
    def test_cached_module_compiles_and_memoizes(self):
        workers._MEMO.clear()
        first = cached_module(SOURCE, "m")
        assert len(workers._MEMO) == 1
        second = cached_module(SOURCE, "m")
        assert len(workers._MEMO) == 1  # hit, not a recompile
        # Distinct clones: mutating one must not leak into the next.
        assert first is not second
        del first.functions["main"]
        assert "main" in cached_module(SOURCE, "m").functions

    def test_ir_and_c_sources_never_alias(self):
        workers._MEMO.clear()
        cached_module(SOURCE, "m", is_ir=False)
        keys = set(workers._MEMO)
        # Same text tagged as IR must get its own cache slot (it would
        # not even parse, so reaching the compiler proves the miss).
        try:
            cached_module(SOURCE, "m", is_ir=True)
        except Exception:
            pass
        assert workers._source_key(SOURCE, "m", True) not in keys

    def test_modules_sharing_a_source_keep_their_own_names(self):
        """A memo hit must not hand out a module compiled under another
        name: reports and ``port_done`` events carry that name."""
        workers._MEMO.clear()
        assert cached_module(SOURCE, "one").name == "one"
        assert cached_module(SOURCE, "two").name == "two"
        assert cached_module(SOURCE, "one").name == "one"
        workers._MEMO.clear()

    def test_memo_is_bounded(self):
        workers._MEMO.clear()
        for index in range(workers._MEMO_LIMIT + 5):
            cached_module(
                f"int g{index} = {index}; int main() {{ return g{index}; }}",
                f"m{index}",
            )
        assert len(workers._MEMO) <= workers._MEMO_LIMIT
        workers._MEMO.clear()


def _double(value):
    return value * 2


class TestRunBatch:
    def test_in_process_below_two_jobs_or_tasks(self):
        seen = []
        # A closure cannot pickle: reaching it proves no pool was used.
        record = lambda value: seen.append(value) or value * 2  # noqa: E731
        assert run_batch(record, [1, 2, 3]) == [2, 4, 6]
        assert run_batch(record, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert run_batch(record, [4], jobs=4) == [8]
        assert seen == [1, 2, 3, 1, 2, 3, 4]
        assert not pooled([1, 2], None) and not pooled([1], 4)

    def test_pooled_batches_keep_order(self):
        shutdown_pools()
        try:
            assert pooled([1, 2], 2)
            values = list(range(7))
            assert run_batch(_double, values, jobs=2) == [
                v * 2 for v in values
            ]
            assert pool_stats()[2]["batches"] == 1
        finally:
            shutdown_pools()


class TestTimedCall:
    def test_tags_pid_and_wall(self):
        pid, wall, result = timed_call(_double, 21)
        assert pid == os.getpid()
        assert wall >= 0.0
        assert result == 42


class TestPool:
    def test_map_preserves_order_and_accounts_per_worker(self):
        pool = WorkerPool(2)
        try:
            values = list(range(20))
            assert pool.map(_double, values) == [v * 2 for v in values]
            assert pool.batches == 1
            assert sum(s["tasks"] for s in pool.worker_stats.values()) == 20
            assert all(
                s["busy_seconds"] >= 0.0
                for s in pool.worker_stats.values()
            )
        finally:
            pool.close()

    def test_empty_batch_short_circuits(self):
        pool = WorkerPool(2)
        try:
            assert pool.map(_double, []) == []
            assert pool.batches == 0
        finally:
            pool.close()

    def test_get_pool_is_persistent_per_jobs_count(self):
        shutdown_pools()
        try:
            first = get_pool(2)
            assert get_pool(2) is first  # reused, not re-forked
            assert get_pool(3) is not first  # keyed by worker count
            first.map(_double, [1, 2, 3])
            stats = pool_stats()
            assert stats[2]["batches"] == 1
            assert stats[3]["batches"] == 0
        finally:
            shutdown_pools()
        assert pool_stats() == {}

    def test_pool_stats_is_a_snapshot(self):
        shutdown_pools()
        try:
            pool = get_pool(2)
            pool.map(_double, [1, 2, 3])
            snapshot = pool_stats()
            pool.map(_double, [4, 5, 6])
            tasks = sum(s["tasks"] for s in snapshot[2]["workers"].values())
            assert tasks == 3  # later batches must not leak in
        finally:
            shutdown_pools()


class _SlowPool:
    """Stands in for :class:`WorkerPool`: slow to build, never forks."""

    built = []

    def __init__(self, jobs):
        time.sleep(0.05)
        self.jobs = jobs
        self.batches = 0
        self.worker_stats = {}
        _SlowPool.built.append(self)

    def close(self, terminate=False):
        pass


def test_concurrent_get_pool_builds_one_pool(monkeypatch):
    """Threads racing on a missing pool must share one registered pool
    (a second, unregistered pool would never be shut down)."""
    shutdown_pools()
    monkeypatch.setattr(workers, "WorkerPool", _SlowPool)
    _SlowPool.built = []
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(get_pool(3)))
        for _ in range(4)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4
        assert len(_SlowPool.built) == 1
        assert all(pool is _SlowPool.built[0] for pool in got)
    finally:
        shutdown_pools()
