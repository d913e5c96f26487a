"""The parallel check harness must agree with in-process checking."""

from repro.bench.corpus import BENCHMARKS
from repro.core.workers import run_batch
from repro.mc.parallel import CheckTask, run_task

BOUNDS = dict(max_steps=600, max_states=400_000)


def _tasks():
    return [
        CheckTask(name=name, source=BENCHMARKS[name].mc_source(),
                  model="wmm", level="atomig", **BOUNDS)
        for name in ("message_passing", "ck_ring", "ck_spinlock_cas",
                     "lf_hash")
    ]


def test_run_tasks_parallel_matches_sequential():
    tasks = _tasks()
    sequential = run_batch(run_task, tasks, jobs=None)
    parallel = run_batch(run_task, tasks, jobs=2)
    assert len(parallel) == len(tasks)
    for seq, par in zip(sequential, parallel):
        assert par.ok == seq.ok
        assert par.outcome == seq.outcome
        assert par.states_explored == seq.states_explored
        # Results cross the process boundary with their stats intact.
        assert par.stats is not None
        assert par.stats.states_visited == seq.stats.states_visited


def test_run_task_original_level_skips_porting():
    source = BENCHMARKS["message_passing"].mc_source()
    unported = run_task(CheckTask(name="mp", source=source, model="wmm",
                                  level=None, **BOUNDS))
    # The unported TSO client hits the WMM reordering.
    assert not unported.ok


def test_jobs_one_runs_in_process():
    """jobs<=1 must not spawn a pool (deterministic default path)."""
    tasks = _tasks()[:1]
    assert run_batch(run_task, tasks, jobs=1)[0].ok == run_task(tasks[0]).ok
