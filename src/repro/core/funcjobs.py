"""Function-parallel execution of intra-procedural pipeline stages.

The detection stages (annotations, spinloops, optimistic loops) are
per-function by construction: each worker reads and mutates only one
function's instructions, and the per-function partial results merge
into sets.  ``map_functions`` fans those workers out over a thread
pool and returns the partials **in module function order**, so merged
results are independent of scheduling.

Threads, not processes: the workers mutate live IR objects in place,
which cannot cross a process boundary.  Under CPython's GIL this is a
modest win (the analyses are pure Python), so the pipeline default is
``jobs=1`` — process-level parallelism across *ports* is where the
real speedup lives (:func:`repro.core.workers.run_batch`).

Memoized analyses shared between workers (``AnalysisCache``) are safe
here: dict get/set are atomic under the GIL, and a lost race merely
recomputes a per-function analysis once.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.core.workers import pooled


def map_items(items, worker, jobs=1):
    """Apply ``worker`` to every item; results in input order."""
    items = list(items)
    if not pooled(items, jobs):
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        # executor.map preserves input order, so the caller's merge
        # loop sees partials exactly as the serial path would.
        return list(pool.map(worker, items))


def map_functions(module, worker, jobs=1):
    """Apply ``worker`` to every function; partials in module order."""
    return map_items(module.functions.values(), worker, jobs=jobs)
