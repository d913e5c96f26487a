"""The end-to-end porting pipeline (Figure 2 of the paper).

``run_porting`` clones the input module, applies the strategy selected
by :class:`PortingLevel`, verifies the result and returns it together
with a :class:`PortingReport` describing what was detected and changed.

Every stage is timed into ``report.stats`` (:class:`PipelineStats`);
``report.porting_seconds`` covers the transformation proper, while
post-port verification and barrier recounting live in their own stats
buckets.  With ``AtoMigConfig.incremental_verify`` (the default) only
the functions a port actually touched are re-verified: a clone of a
verified module is verified by construction, so an untouched function
cannot have become malformed.
"""

import time

from repro.analysis.cache import AnalysisCache
from repro.core.alias import explore_aliases
from repro.core.annotations import analyze_annotations
from repro.core.atomize import atomize_accesses, insert_optimistic_fences
from repro.core.config import AtoMigConfig, PortingLevel
from repro.core.optimistic import detect_optimistic_loops
from repro.core.profile import notify_event
from repro.core.prune import (
    prune_protected_accesses,
    prune_thread_local_accesses,
)
from repro.core.report import PortingReport, count_barriers
from repro.core.spinloops import detect_spinloops
from repro.gcpause import gc_paused
from repro.ir.verifier import verify_module
from repro.transform.inline import inline_module
from repro.transform.lasagne import lasagne_port
from repro.transform.naive import naive_port


@gc_paused
def run_porting(module, level=PortingLevel.ATOMIG, config=None,
                optimize=False, optimize_kwargs=None):
    """Port ``module`` according to ``level``; returns (ported, report).

    ``optimize=True`` appends the oracle-guided barrier-weakening stage
    (:func:`repro.opt.optimize_module`): after porting, memory orders
    are relaxed as far as the model checker certifies the verdict
    unchanged.  The weakened module is returned and the
    ``OptimizationReport`` dict lands in ``report.optimization``.
    ``optimize_kwargs`` forwards knobs (``model``, ``jobs``,
    ``counts``...) to the optimizer.
    """
    started = time.perf_counter()
    config = config or AtoMigConfig.for_level(level)
    report = PortingReport(module_name=module.name, level=level.value)
    stats = report.stats
    with stats.stage("count_barriers"):
        report.original_explicit_barriers, report.original_implicit_barriers = (
            count_barriers(module)
        )

    with stats.stage("clone"):
        ported = module.clone()
    ported.name = f"{module.name}.{level.value}"

    #: Names of functions this port modified; ``None`` means "assume
    #: everything" (module-wide rewrites without touch tracking).
    touched = None
    if level is PortingLevel.ORIGINAL:
        touched = set()
    elif level is PortingLevel.NAIVE:
        with stats.stage("naive"):
            report.naive_conversions = naive_port(ported)
    elif level is PortingLevel.LASAGNE:
        with stats.stage("lasagne"):
            inserted, removed = lasagne_port(ported)
        report.fences_inserted = inserted - removed
        report.notes.append(
            f"lasagne: inserted {inserted} fences, eliminated {removed}"
        )
    else:
        touched = _run_atomig(ported, level, config, report)

    if config.repair_mode:
        from repro.analysis.repair import repair_module

        with stats.stage("repair"):
            _, repair_report = repair_module(
                ported, model=config.repair_model,
                arch=config.repair_arch, clone=False,
            )
        report.repair = repair_report.to_dict()
        if repair_report.rounds:
            # Repaired functions carry new fences / orders: make sure
            # the incremental verifier re-checks them.
            if touched is not None:
                touched |= {a.function for a in repair_report.actions}
            report.notes.append(repair_report.summary())
        if not repair_report.robust_after:
            report.notes.append(
                f"repair: module still non-robust under "
                f"{config.repair_model} after repair"
            )

    with stats.stage("verify"):
        if touched is None or not config.incremental_verify:
            verify_module(ported)
            stats.count("verified_functions", len(ported.functions))
        else:
            verify_module(ported, functions=touched)
            stats.count("verified_functions", len(touched))
            stats.count(
                "verify_skipped_functions",
                len(ported.functions) - len(touched),
            )
    with stats.stage("count_barriers"):
        report.ported_explicit_barriers, report.ported_implicit_barriers = (
            count_barriers(ported)
        )

    if config.check_robustness:
        from repro.analysis.robustness import analyze_robustness

        with stats.stage("robustness"):
            robust = analyze_robustness(ported)
        report.robustness = robust.to_dict()
        if robust.robust:
            report.notes.append(
                "robustness: statically robust under wmm — verdict "
                "equals the SC verdict, no model checking needed"
            )
        else:
            report.notes.append(
                f"robustness: potentially non-robust under wmm "
                f"({robust.delayable_pairs} delayable pairs)"
            )

    if optimize:
        from repro.opt import optimize_module  # lazy: opt pulls in mc

        with stats.stage("optimize"):
            ported, opt_report = optimize_module(
                ported, clone=False, **(optimize_kwargs or {})
            )
        report.optimization = opt_report.to_dict()
        if opt_report.baseline_outcome and not opt_report.verdict_preserved:
            report.notes.append(
                f"optimize: verdict NOT preserved "
                f"({opt_report.baseline_outcome} -> "
                f"{opt_report.final_outcome})"
            )

    stats.total_seconds = time.perf_counter() - started
    report.porting_seconds = stats.transform_seconds
    ported.metadata["porting_report"] = report
    notify_event(
        "port_done", module=module.name, level=level.value,
        seconds=stats.total_seconds,
        barriers=[report.ported_explicit_barriers,
                  report.ported_implicit_barriers],
    )
    return ported, report


def _run_atomig(ported, level, config, report):
    """Run the AtoMig stages on ``ported`` in place.

    Returns the set of names of functions the port modified (for the
    incremental verifier).
    """
    report.alias_mode = config.alias_mode
    stats = report.stats
    touched = set()

    if config.inline_before_analysis:
        with stats.stage("inline"):
            inlined = inline_module(
                ported, config.inline_size_limit, touched=touched
            )
        if inlined:
            report.notes.append(f"inlined {inlined} call sites before analysis")

    # One analysis cache for every stage below.  Built after inlining —
    # the per-function analyses hold references into the final IR.
    cache = AnalysisCache(ported)

    seed_keys = set()
    marked = set()

    if config.analyze_annotations:
        with stats.stage("annotations"):
            annotations = analyze_annotations(
                ported, config.volatile_blacklist, cache=cache,
                jobs=config.function_jobs,
            )
        seed_keys |= annotations.location_keys
        marked |= annotations.marked_instructions
        report.annotation_conversions = annotations.conversions

    spinloops = None
    if config.detect_spinloops:
        with stats.stage("spinloops"):
            spinloops = detect_spinloops(
                ported, strict=config.strict_spinloop_definition, cache=cache,
                jobs=config.function_jobs,
            )
        seed_keys |= spinloops.control_keys
        marked |= spinloops.control_instructions
        report.spinloops = [
            (info.function_name, info.header_label)
            for info in spinloops.spinloops
        ]
        report.spin_controls = sorted(map(str, spinloops.control_keys))

    if config.detect_polling_loops or config.compiler_barrier_seeds:
        from repro.core.extensions import (
            detect_compiler_barrier_seeds,
            detect_polling_loops,
        )

        extensions = None
        with stats.stage("extensions"):
            if config.detect_polling_loops:
                extensions = detect_polling_loops(ported, cache=cache)
                if extensions.polling_loops:
                    report.notes.append(
                        f"polling loops detected: {extensions.polling_loops}"
                    )
            if config.compiler_barrier_seeds:
                extensions = detect_compiler_barrier_seeds(
                    ported, extensions, cache=cache
                )
        if extensions is not None:
            seed_keys |= extensions.control_keys
            marked |= extensions.control_instructions

    optimistic = None
    if config.detect_optimistic and spinloops is not None:
        with stats.stage("optimistic"):
            optimistic = detect_optimistic_loops(
                ported, spinloops, cache=cache, jobs=config.function_jobs
            )
        seed_keys |= optimistic.control_keys
        marked |= optimistic.control_instructions
        report.optimistic_loops = [
            (info.function_name, info.spinloop.header_label)
            for info in optimistic.optimistic_loops
        ]
        report.optimistic_controls = sorted(map(str, optimistic.control_keys))

    sticky = set()
    index = None
    if config.alias_exploration:
        # points_to mode also re-seeds from the already-marked accesses:
        # a marked access that is keyless under the type scheme can be
        # keyed by its points-to class, pulling its true aliases in.
        seed_instructions = marked if config.alias_mode == "points_to" else ()
        with stats.stage("alias"):
            sticky, index = explore_aliases(
                ported, seed_keys, cache=cache, mode=config.alias_mode,
                seed_instructions=seed_instructions,
            )
        report.sticky_conversions = len(sticky - marked)

    # Every access whose order or marks may change lives in one of
    # these sets — record their functions before pruning shrinks them.
    for instr in marked | sticky:
        touched.add(instr.block.function.name)

    to_atomize = marked | sticky
    if config.prune_protected:
        with stats.stage("prune_protected"):
            pruned = prune_protected_accesses(ported, to_atomize, cache=cache)
        to_atomize -= pruned
        report.pruned_protected = len(pruned)
        if pruned:
            report.notes.append(
                f"lint pruning: {len(pruned)} lock-protected accesses "
                f"left plain"
            )

    if config.alias_mode == "points_to":
        with stats.stage("prune_thread_local"):
            local_pruned = prune_thread_local_accesses(
                ported, to_atomize, cache
            )
        to_atomize -= local_pruned
        report.pruned_thread_local = len(local_pruned)
        if local_pruned:
            report.notes.append(
                f"escape pruning: {len(local_pruned)} thread-local "
                f"accesses left plain"
            )
        with stats.stage("provenance"):
            report.alias_provenance = _alias_provenance(
                index, to_atomize, local_pruned
            )

    with stats.stage("atomize"):
        atomize_accesses(
            to_atomize, force_explicit=config.force_explicit_barriers
        )

    if optimistic is not None and optimistic.optimistic_loops:
        with stats.stage("fences"):
            report.fences_inserted = insert_optimistic_fences(
                ported, optimistic, sticky, cache=cache, touched=touched
            )

    warnings = ported.metadata.get("lowering_warnings")
    if warnings:
        report.notes.extend(warnings)
    return touched


def _alias_provenance(index, to_atomize, local_pruned):
    """String-only per-access provenance for the porting report.

    One entry per interesting access: atomized accesses whose key came
    from the points-to analysis (the precision *gain*) and accesses
    pruned as thread-local (the over-atomization *removed*).

    O(interesting accesses): positions come from the
    :class:`AccessIndex` built during alias exploration (it already
    walks every memory access once), and ordering uses the stable
    (function, block, ordinal) identity recorded there — ``repr`` of an
    unnamed instruction is ``id()``-based and unstable across runs.
    """
    if index is None:
        return []
    positions = index.position_of
    unknown = ("?", "?", -1)
    entries = []
    for instr in sorted(
        to_atomize | local_pruned,
        key=lambda i: positions.get(i, unknown),
    ):
        keyed = index.key_of.get(instr)
        pruned = "pruned_thread_local" in instr.marks
        if not pruned and (keyed is None or keyed[1] == "type"):
            continue
        function_name, block_label, _ = positions.get(instr, unknown)
        entries.append({
            "function": function_name,
            "block": block_label,
            "instr": repr(instr),
            "key": repr(keyed[0]) if keyed else None,
            "origin": keyed[1] if keyed else "none",
            "action": "pruned_thread_local" if pruned else "atomized",
        })
    return entries
