"""Model-checking jobs as picklable tasks.

Every headline artefact (Table 2, Table 7, extended verification, the
litmus calibration matrix, the optimizer's bisection probes) is a batch
of *independent* ``check_module`` calls.  A :class:`CheckTask` is a
picklable description of one job — source text plus porting level and
exploration bounds — and :func:`run_task` its top-level worker;
:func:`repro.core.workers.run_batch` runs a batch of them in-process
(``jobs`` unset or 1, the deterministic default) or on a persistent
pool (``atomig check --jobs N`` / ``atomig tables --jobs N``).

Tasks carry source text rather than IR modules: compiling is cheap and
text pickles everywhere, so the same task list works under both the
``fork`` and ``spawn`` start methods.  Each worker memoizes compiled
modules (:func:`repro.core.workers.cached_module`), so the Oracle's
bisection probes, which re-check the same programs dozens of times,
stop paying recompilation per round.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckTask:
    """One model-checking job, self-contained and picklable."""

    #: Module name (diagnostics only).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value ("original", "expl", ..., or None to check the
    #: compiled module as-is, without running the porting pipeline).
    level: str = None
    entry: str = "main"
    max_steps: int = 2500
    max_states: int = 2_000_000
    #: Partial-order-reduction backend ("none"/"sleep"/"dpor"); None =
    #: explorer default (sleep).
    por: str = None
    #: Macro-stepping ("on"/"off"); None = explorer default.
    macro: str = None
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    #: Parse ``source`` as IR text instead of Mini-C.
    is_ir: bool = False
    #: Run the static robustness pre-pass before exploring.
    robustness: bool = False


def task_module(task):
    """The module a check/optimize/repair task works on.

    Compiled (or parsed) through the per-worker cache
    (:func:`repro.core.workers.cached_module`), then ported to
    ``task.level`` with ``task.config`` unless the level is ``None``.
    """
    from repro.api import port_module
    from repro.core.config import PortingLevel
    from repro.core.workers import cached_module
    from repro.gcpause import collect_between_jobs

    collect_between_jobs()
    module = cached_module(task.source, task.name, is_ir=task.is_ir)
    if task.level is not None:
        module, _report = port_module(
            module, PortingLevel(task.level), config=task.config
        )
    return module


def run_task(task):
    """Compile, port and check one task; returns its ``CheckResult``.

    Top-level (not a closure) so it pickles under every multiprocessing
    start method.  Modules come from the per-worker cache
    (:func:`repro.core.workers.cached_module`): a source checked under
    several models or re-probed across bisection rounds compiles once
    per worker.
    """
    from repro.mc.explorer import check_module

    return check_module(
        task_module(task), model=task.model, entry=task.entry,
        max_steps=task.max_steps, max_states=task.max_states,
        por=task.por, macro=task.macro, robustness=task.robustness,
    )

