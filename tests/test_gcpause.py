"""``gc_paused``: the collector is off inside, and set back exactly after."""

import gc
import os
import threading

import pytest

from repro.gcpause import gc_paused


@pytest.fixture(autouse=True)
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@gc_paused
def _state(result=None):
    return gc.isenabled() if result is None else result


def test_paused_inside_and_restored_on_return():
    assert _state() is False
    assert gc.isenabled()


def test_restored_on_exception():
    @gc_paused
    def boom():
        assert not gc.isenabled()
        raise ValueError("boom")

    with pytest.raises(ValueError):
        boom()
    assert gc.isenabled()


def test_wraps_the_function():
    assert _state.__name__ == "_state"
    assert _state(result=7) == 7


def test_nested_pauses_resume_only_when_the_outermost_exits():
    seen = []

    @gc_paused
    def inner():
        seen.append(gc.isenabled())

    @gc_paused
    def outer():
        inner()
        seen.append(gc.isenabled())  # after the inner pause returned

    outer()
    assert seen == [False, False]
    assert gc.isenabled()


def test_never_enables_a_collector_the_caller_disabled():
    gc.disable()
    assert _state() is False
    assert not gc.isenabled()


def test_restores_the_state_it_found_even_if_changed_inside():
    @gc_paused
    def enables():
        gc.enable()

    gc.disable()
    enables()
    assert not gc.isenabled()


def test_overlapping_pauses_on_two_threads_leave_the_collector_enabled():
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    @gc_paused
    def first():
        first_in.set()
        second_in.wait(5)
        seen["first"] = gc.isenabled()

    @gc_paused
    def second():
        second_in.set()
        first_out.wait(5)
        # The first pause has returned, this one is still running.
        seen["second"] = gc.isenabled()

    def run_first():
        first()
        first_out.set()

    threads = [threading.Thread(target=run_first)]
    threads[0].start()
    first_in.wait(5)
    threads.append(threading.Thread(target=second))
    threads[1].start()
    for thread in threads:
        thread.join(10)
    assert seen == {"first": False, "second": False}
    assert gc.isenabled()


def _fork_and_probe(fork, probe):
    """Call ``fork`` (which forks); the child reports whether ``probe()``."""
    read, write = os.pipe()
    pid = fork()
    if pid == 0:
        try:
            os.write(write, b"1" if probe() else b"0")
        finally:
            os._exit(0)
    os.close(write)
    answer = os.read(read, 1)
    os.close(read)
    os.waitpid(pid, 0)
    return answer == b"1"


def _collector_works():
    """Enabled now, off inside a new pause, enabled again after it."""
    return gc.isenabled() and _state() is False and gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_child_forked_beside_another_threads_pause_starts_unpaused():
    inside, leave = threading.Event(), threading.Event()

    @gc_paused
    def hold():
        inside.set()
        leave.wait(5)

    thread = threading.Thread(target=hold)
    thread.start()
    inside.wait(5)
    try:
        assert not gc.isenabled()
        # The pausing thread does not exist in the child, so its pause
        # must not outlive it there.
        assert _fork_and_probe(os.fork, _collector_works)
    finally:
        leave.set()
        thread.join(10)
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_child_forked_inside_a_pause_starts_unpaused():
    inside = []

    @gc_paused
    def fork_here():
        pid = os.fork()
        inside.append(gc.isenabled())
        return pid

    # In the child (a pool worker never returns from here) the pause is
    # over at once; a paused call that does return leaves it consistent.
    assert _fork_and_probe(
        fork_here, lambda: inside == [True] and _collector_works()
    )
    assert inside == [False] and gc.isenabled()


class _Cycle:
    def __init__(self):
        self.me = self


def _dead_cycle():
    """Make an unreachable reference cycle; return a weak probe of it."""
    import weakref

    return weakref.ref(_Cycle())


@pytest.fixture
def no_automatic_collection():
    """Collector enabled, but it never starts a collection by itself."""
    from repro import gcpause

    thresholds = gc.get_threshold()
    gc.set_threshold(0)
    yield gcpause
    gc.set_threshold(*thresholds)


def test_collect_between_jobs_once_the_heap_grew_by_a_quarter(
        no_automatic_collection, monkeypatch):
    gcpause = no_automatic_collection
    probe = _dead_cycle()
    monkeypatch.setattr(gcpause, "_blocks_after_collect", 10**12)
    gcpause.collect_between_jobs()  # no growth: nothing to do
    assert probe() is not None
    monkeypatch.setattr(gcpause, "_blocks_after_collect", 0)
    gcpause.collect_between_jobs()
    assert probe() is None
    assert gcpause._blocks_after_collect > 0


def test_collect_between_jobs_skips_paused_calls_and_a_disabled_collector(
        no_automatic_collection, monkeypatch):
    gcpause = no_automatic_collection
    monkeypatch.setattr(gcpause, "_blocks_after_collect", 0)
    probe = _dead_cycle()

    @gc_paused
    def job():
        gcpause.collect_between_jobs()
        return probe() is not None

    assert job()
    probe = _dead_cycle()
    gc.disable()
    gcpause.collect_between_jobs()
    assert probe() is not None
    gc.enable()
    gcpause.collect_between_jobs()
    assert probe() is None
