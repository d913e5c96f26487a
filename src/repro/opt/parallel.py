"""Optimize and repair jobs as picklable tasks (Tables 9/10, serve).

Mirrors :mod:`repro.mc.parallel`: an :class:`OptimizeTask` is a
picklable description of one port-then-optimize job and
:func:`run_optimize_task` its top-level worker; :class:`RepairTask` /
:func:`run_repair_task` do the same for port-then-repair.  Batches run
through :func:`repro.core.workers.run_batch`.  Each worker runs its own
greedy loop sequentially — the parallelism that matters for Table 9 is
across corpus rows, not within one module's bisection.

Results are plain dicts (``OptimizationReport.to_dict()`` /
``RepairReport.to_dict()``) so they pickle under every multiprocessing
start method.
"""

from dataclasses import dataclass

from repro.mc.parallel import task_module


@dataclass(frozen=True)
class OptimizeTask:
    """One optimize job, self-contained and picklable."""

    #: Module name (carried into the report).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value to port to before optimizing, or None to
    #: optimize the compiled module as-is.
    level: str = "atomig"
    entry: str = "main"
    max_steps: int = 2500
    max_states: int = 400_000
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    is_ir: bool = False
    #: Consider unmarked SC accesses too (hand-written modules).
    require_marks: bool = True
    #: Enable the oracle's static robustness fast path.
    robustness: bool = True
    #: Seed the weakener from the static fence-repair pass (the
    #: repaired minimal-fence module) instead of the raw port.
    repair_seed: bool = False
    #: Architecture cost-model name ("armv8" / "power"); None keeps the
    #: default model.  Affects cost *reporting* and candidate ranking,
    #: never the oracle's verdicts.
    arch: str = None


def run_optimize_task(task):
    """Compile, port and optimize one task; returns a report dict.

    Top-level (not a closure) so it pickles under every multiprocessing
    start method.
    """
    from repro.opt.weaken import optimize_module
    from repro.vm.costs import cost_model_for

    cost_model = cost_model_for(task.arch) if task.arch else None
    _optimized, report = optimize_module(
        task_module(task), model=task.model, entry=task.entry,
        max_steps=task.max_steps, max_states=task.max_states,
        cost_model=cost_model,
        require_marks=task.require_marks, clone=False,
        robustness=task.robustness, repair_seed=task.repair_seed,
    )
    return report.to_dict()


@dataclass(frozen=True)
class RepairTask:
    """One port-then-repair job, self-contained and picklable."""

    #: Module name (carried into the report).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value to port to before repairing, or None to
    #: repair the compiled module as-is.
    level: str = "atomig"
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    is_ir: bool = False
    #: Architecture cost-model name ("armv8" / "power"); None keeps the
    #: default model.
    arch: str = None
    #: Model-check the repaired module and record the evidence.
    verify: bool = False
    max_steps: int = 2500
    max_states: int = 400_000


def run_repair_task(task):
    """Compile, port and statically repair one task; returns a report dict.

    Top-level (not a closure) so it pickles under every multiprocessing
    start method.
    """
    from repro.analysis.repair import repair_module

    _repaired, report = repair_module(
        task_module(task), model=task.model, arch=task.arch, clone=False,
        verify=task.verify, max_steps=task.max_steps,
        max_states=task.max_states,
    )
    return report.to_dict()
