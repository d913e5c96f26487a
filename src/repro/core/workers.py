"""One batch runner over persistent worker pools (DESIGN.md §6f).

Every batch in the system — Table 2/3/5/6/8/9/10 rows, the
optimizer's bisection probes, ``atomig check --jobs``, multi-module
serve jobs — is a list of independent picklable tasks and a top-level
worker function.  :func:`run_batch` is the one place that decides how
such a batch runs:

- **In process** when ``jobs`` is unset or ``<= 1``, or when there is at
  most one task: a plain in-order loop in the calling thread (so
  thread-local observers such as the serve daemon's stage events see
  every pipeline boundary).  :func:`pooled` answers the same question
  for callers that need to know in advance.
- **On a persistent pool** otherwise.  :func:`get_pool` keeps one pool
  per worker count alive for the whole process (closed via
  ``atexit`` or :func:`shutdown_pools`), so a bisection loop that
  probes dozens of batches forks exactly once.  Tasks are handed out
  one at a time: batches are few and lumpy (a mariadb-sized port must
  not strand a prefetched chunk of small ones behind it).

Workers memoize compiled/parsed modules by (source, name, kind)
digest (:func:`cached_module`), in the pool and in-process alike.  Hits
hand out ``Module.clone()`` copies — the porting pipeline may mutate
its input, so the cached master is never exposed.  Every pooled task
runs through a timing wrapper; :attr:`WorkerPool.worker_stats` maps
worker pid to cumulative busy seconds and task count, making pool skew
visible to the perf harnesses (``BENCH_port.json``) and ``GET /stats``.
"""

import atexit
import os
import threading
import time
from functools import partial

# -- worker-side state (one copy per worker process) ------------------------

#: Memo of modules first seen inside a task: key -> master module.
#: Bounded: a long bisection streams thousands of one-shot variants
#: through a worker, and caching them all would only grow memory.
_MEMO = {}
_MEMO_LIMIT = 128


def _source_key(source, name, is_ir):
    """Memo key: the frontend-cache digest of (source, name) plus kind.

    The name is part of the key because a compiled module carries it
    (reports and ``port_done`` events name the module): two modules
    sharing a source must not share a master.
    """
    from repro.modcache import source_digest

    return ("ir" if is_ir else "c", source_digest(source, name))


def _compile(source, name, is_ir):
    if is_ir:
        from repro.ir.parser import parse_module

        return parse_module(source)
    from repro.api import compile_source

    return compile_source(source, name)


def cached_module(source, name, is_ir=False):
    """A private module for ``source``: cloned from this worker's memo.

    Misses compile (or parse) and memoize; hits return
    ``Module.clone()`` so callers may mutate freely.
    """
    key = _source_key(source, name, is_ir)
    master = _MEMO.get(key)
    if master is None:
        master = _compile(source, name, is_ir)
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[key] = master
    return master.clone()


def timed_call(worker, task):
    """Run one task, tagging the result with (pid, busy seconds)."""
    started = time.perf_counter()
    result = worker(task)
    return (os.getpid(), time.perf_counter() - started, result)


# -- the pool ---------------------------------------------------------------


class WorkerPool:
    """A persistent process pool with per-worker accounting."""

    def __init__(self, jobs):
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork (e.g. Windows)
            context = multiprocessing.get_context("spawn")
        self.jobs = jobs
        self._pool = context.Pool(processes=jobs)
        #: pid -> {"tasks": int, "busy_seconds": float}
        self.worker_stats = {}
        self.batches = 0

    def map(self, worker, tasks):
        """Run ``tasks`` through ``worker``; results keep input order."""
        tasks = list(tasks)
        if not tasks:
            return []
        rows = self._pool.map(partial(timed_call, worker), tasks, chunksize=1)
        results = []
        with _LOCK:
            self.batches += 1
            for pid, busy, result in rows:
                stats = self.worker_stats.setdefault(
                    pid, {"tasks": 0, "busy_seconds": 0.0}
                )
                stats["tasks"] += 1
                stats["busy_seconds"] += busy
                results.append(result)
        return results

    def close(self, terminate=False):
        """Shut the pool down; ``terminate=True`` skips draining."""
        if terminate:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()


# -- persistent registry ----------------------------------------------------

_POOLS = {}
#: Guards :data:`_POOLS` and every pool's accounting: the serve daemon
#: asks for pools and reads their stats from several threads at once.
_LOCK = threading.Lock()


def get_pool(jobs):
    """The process-wide pool for ``jobs`` workers, created on first use."""
    with _LOCK:
        pool = _POOLS.get(jobs)
        if pool is None:
            pool = _POOLS[jobs] = WorkerPool(jobs)
        return pool


def pooled(tasks, jobs):
    """True when :func:`run_batch` would fan ``tasks`` out to a pool."""
    return jobs is not None and jobs > 1 and len(tasks) > 1


def run_batch(worker, tasks, jobs=None):
    """Run ``worker`` over ``tasks``; results align with the input order.

    ``worker`` must be a picklable top-level callable whenever the
    batch is :func:`pooled`; in-process batches may pass any callable.
    """
    tasks = list(tasks)
    if not pooled(tasks, jobs):
        return [worker(task) for task in tasks]
    return get_pool(jobs).map(worker, tasks)


def pool_stats():
    """{jobs: {"batches": n, "workers": worker_stats}} for live pools.

    A snapshot: the dicts are copies, safe to serialise while other
    threads keep mapping batches.
    """
    with _LOCK:
        return {
            jobs: {
                "batches": pool.batches,
                "workers": {
                    pid: dict(stats)
                    for pid, stats in pool.worker_stats.items()
                },
            }
            for jobs, pool in _POOLS.items()
        }


def shutdown_pools(terminate=False):
    """Close every persistent pool.

    Registered with ``atexit`` for normal interpreter exit, but
    ``atexit`` does not fire on signal death — long-lived daemons
    (:mod:`repro.serve`) call this explicitly from their SIGTERM path.
    ``terminate=True`` kills workers without draining in-flight tasks
    (the non-graceful shutdown).  Idempotent.
    """
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        try:
            pool.close(terminate=terminate)
        except Exception:  # pragma: no cover - teardown best-effort
            pass


atexit.register(shutdown_pools)
