"""Port jobs as picklable tasks (Tables 3/5/6, serve ``port`` jobs).

The Table 5/6 harnesses and multi-module serve jobs are batches of
*independent* (module, level) ports — different applications,
different porting levels, disjoint cloned modules.  A :class:`PortTask`
is a picklable description of one job and :func:`run_port_task` its
top-level worker; :func:`repro.core.workers.run_batch` runs a batch of
them in-process or on a persistent pool.

Tasks carry source text rather than IR modules, so the same task list
works under both the ``fork`` and ``spawn`` start methods; each worker
compiles — or pulls from the frontend cache (:mod:`repro.modcache`) —
inside its own process and times its own build and port, keeping
per-row build/port ratios honest under parallelism.  Outcomes return
:class:`PortingReport` objects (picklable, including their per-stage
profile) instead of live IR; callers that need the ported IR itself
request ``emit_ir`` and get the printed text, which doubles as the
bit-identity witness in the serial-vs-parallel CI check.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PortTask:
    """One porting job, self-contained and picklable."""

    #: Module name (also the compile name; diagnostics).
    name: str
    #: Mini-C source text.
    source: str = None
    #: PortingLevel value ("original", ..., "atomig"), or ``None`` to
    #: just compile and count barriers.
    level: str = None
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    #: Return the printed IR of the ported module.
    emit_ir: bool = False
    #: VM schedule seeds to execute the ported module under
    #: (Tables 5/6); one cycle count per seed in the outcome.
    run_seeds: tuple = ()
    #: Frontend-cache override (None = honor ATOMIG_FRONTEND_CACHE).
    frontend_cache: bool = None


@dataclass
class PortOutcome:
    """What one :class:`PortTask` produced (picklable)."""

    name: str
    level: str = None
    #: The :class:`repro.core.report.PortingReport` (None when the task
    #: only compiled).
    report: object = None
    #: (explicit, implicit) barriers of the final module.
    barriers: tuple = (0, 0)
    #: Wall-clock of the in-worker compile (or cache load).
    build_seconds: float = 0.0
    #: Wall-clock of the in-worker ``port_module`` call.
    port_seconds: float = 0.0
    #: Modeled cycle count per requested schedule seed.
    cycles: tuple = ()
    #: Printed IR of the final module (``emit_ir`` tasks only).
    ir_text: str = None


def run_port_task(task):
    """Compile, port, and optionally run one task.

    Top-level (not a closure) so it pickles under every multiprocessing
    start method.
    """
    import time

    from repro.api import compile_source, port_module, run_module
    from repro.core.config import PortingLevel
    from repro.core.report import count_barriers

    started = time.perf_counter()
    module = compile_source(task.source, task.name, cache=task.frontend_cache)
    build_seconds = time.perf_counter() - started

    ported = module
    report = None
    port_seconds = 0.0
    if task.level is not None:
        started = time.perf_counter()
        ported, report = port_module(
            module, PortingLevel(task.level), config=task.config
        )
        port_seconds = time.perf_counter() - started

    outcome = PortOutcome(
        name=task.name, level=task.level, report=report,
        barriers=count_barriers(ported),
        build_seconds=build_seconds, port_seconds=port_seconds,
    )
    if task.run_seeds:
        outcome.cycles = tuple(
            run_module(ported, schedule_seed=seed).cycles
            for seed in task.run_seeds
        )
    if task.emit_ir:
        from repro.ir.printer import print_module

        outcome.ir_text = print_module(ported)
    return outcome

