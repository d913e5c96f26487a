"""Pause Python's cyclic garbage collector around allocation-heavy calls.

Building or porting a module allocates hundreds of thousands of
long-lived objects (tokens, AST nodes, IR instructions).  Each time the
heap grows by a quarter, the collector rescans all of it in a full
collection, although none of those objects is garbage yet.  Lexing,
parsing, lowering and porting therefore run under :func:`gc_paused`.
Reference counting still frees acyclic garbage at once; cycles made
inside a paused call are collected after it returns.

The pause is process-wide (the collector is), so it is shared: the
collector stays off while any thread is inside a paused call and is
set back, exactly as it was found, when the last one returns.

Pausing also postpones the full collections CPython would have run
inside those calls, and IR modules are cyclic, so only a full
collection frees a dropped one.  The task workers every batch, pool
and daemon job runs through (``run_port_task``, ``task_module``, the
Table 3 row) therefore start with :func:`collect_between_jobs`: between
jobs the live heap is at its smallest and a full collection cheapest.
"""

import functools
import gc
import os
import sys
import threading

_lock = threading.Lock()
#: Paused calls in progress, over all threads.
_active = 0
#: Whether the collector was enabled when the first of them began.
_was_enabled = False
#: Bumped in a forked child, which drops the pauses it inherited.
_epoch = 0
#: ``sys.getallocatedblocks()`` after the last collection made by
#: :func:`collect_between_jobs`.
_blocks_after_collect = 0


def gc_paused(func):
    """Decorator: no cyclic collection while ``func`` runs.

    Nest-safe and thread-safe.  When the outermost paused call returns
    or raises, the collector is enabled or disabled as it was when that
    call began, so a caller that turned the collector off keeps it off.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        global _active, _was_enabled
        with _lock:
            if not _active:
                _was_enabled = gc.isenabled()
                gc.disable()
            _active += 1
            epoch = _epoch
        try:
            return func(*args, **kwargs)
        finally:
            with _lock:
                if epoch == _epoch:
                    _active -= 1
                    if not _active:
                        _restore()

    return paused


def collect_between_jobs():
    """Full collection if the heap grew by a quarter since the last one.

    Call it where one job is over and the next has not begun.  There,
    heap growth is mostly the garbage of finished jobs, so this bounds
    it as CPython's own rule (a full collection per 25% growth) would,
    without scanning a module that is still being built.  Does nothing
    while the collector is off, as it is while any paused call runs.
    """
    global _blocks_after_collect
    if not gc.isenabled():
        return
    if sys.getallocatedblocks() > _blocks_after_collect * 5 // 4:
        gc.collect()
        _blocks_after_collect = sys.getallocatedblocks()


def _restore():
    if _was_enabled:
        gc.enable()
    else:
        gc.disable()


def _reset_in_child():
    # A forked child inherits the parent's pauses, but the calls that
    # would end them may never return there (other threads are gone; a
    # pool worker never leaves its task loop): start it unpaused.  A
    # paused call that does return in the child sees the new epoch and
    # leaves the bookkeeping alone.
    global _lock, _active, _epoch
    _lock = threading.Lock()
    _epoch += 1
    if _active:
        _active = 0
        _restore()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)
