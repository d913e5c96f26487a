"""The sequential workloads: port-apps, verify-corpus, optimize-corpus.

A workload is a fixed input set made from the seed.  ``setup`` builds
it, ``run_pass`` takes every input from source text to its final
report once and checks the outputs, returning a :class:`PassResult`.
Only the calls into the program are timed; the output checks run
between jobs, outside the clock.
"""

import gc
import time
import traceback
from dataclasses import dataclass, field

from inputs import (
    GATE_PROGRAMS,
    corpus_inputs,
    corpus_names,
    digest,
    gate_inputs,
    port_apps_inputs,
    stable_rng,
)
import layers

#: Exploration budget of every verify-corpus check (states visited).
STATE_BUDGET = 2_500


@dataclass
class PassResult:
    """One pass over a workload's input set."""

    #: Seconds spent in the program for this pass.
    wall: float = 0.0
    #: (name, latency seconds) per job.
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    #: Source lines taken from text to a final report.
    lines: int = 0
    barrier_cost: int = 0
    #: Per-layer counters (names as in BENCHMARK.json's per_layer).
    counters: dict = field(default_factory=dict)
    #: One line per failed check or crashed job.
    failures: list = field(default_factory=list)

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def job(self, name, latency, problems=(), decided=True):
        """Record one finished job; ``problems`` are failed checks."""
        self.attempted += 1
        self.latencies.append((name, latency))
        self.wall += latency
        if problems:
            self.failed += 1
            self.failures.extend(f"{name}: {p}" for p in problems)
        elif decided:
            self.decided += 1

    def crash(self, name):
        self.attempted += 1
        self.failed += 1
        self.failures.append(
            f"{name}: {traceback.format_exc(limit=4).strip()}")


def count_compile(result, module, tokens):
    result.count("lang.tokens", tokens)
    result.count("lower.instructions", layers.instruction_count(module))


def count_port(result, report):
    """Per-stage seconds and counters of one port (a PortingReport or
    its ``to_dict()`` form, as the daemon returns it)."""
    if not isinstance(report, dict):
        report = report.to_dict()
    for stage, seconds in report["stats"]["stage_seconds"].items():
        result.count(f"core.{stage}_s", seconds)
    for name, value in report["stats"]["counters"].items():
        result.count(f"core.{name}", value)
    result.count("core.spinloops_found", len(report["spinloops"]))
    result.count("core.optiloops_found", len(report["optimistic_loops"]))


def outcome_label(outcome):
    """The verdict vocabulary of the reports: ok / bug / deadlock."""
    return "bug" if outcome == "violation" else outcome


# -- port-apps -----------------------------------------------------------------


class PortApps:
    """The five Table 3 apps at 1/200 scale, compiled and ported twice."""

    name = "port-apps"
    imports = ("repro.api", "repro.lang.parser", "repro.lower.lowering",
               "repro.ir.printer", "repro.ir.parser", "repro.vm.costs")

    def setup(self, seed):
        self.inputs = port_apps_inputs(seed)
        #: Printed IR digest of each app's first AtoMig port (recorded in
        #: the run's metadata, so runs can be compared).
        self.ir_digests = {}

    def run_pass(self, tracer):
        result = PassResult()
        latency, problems = 0.0, []
        for item in self.inputs:
            # Start each app from a clean heap, as a new process would.
            module = atomig = naive = None
            gc.collect()
            try:
                started = time.perf_counter()
                module, tokens = layers.compile_text(
                    tracer, item.source, item.name)
                atomig, a_report = layers.port(tracer, module, "atomig")
                naive, n_report = layers.port(tracer, module, "naive")
                cost = layers.barrier_cost(tracer, atomig)
                latency += time.perf_counter() - started
                problems += [f"{item.name}: {problem}" for problem
                             in self._check(item, atomig, a_report)]
            except Exception:
                problems.append(
                    f"{item.name}: {traceback.format_exc(limit=4).strip()}")
                continue
            result.lines += item.lines
            result.barrier_cost += cost
            count_compile(result, module, tokens)
            count_port(result, a_report)
            count_port(result, n_report)
        # The batch is the job: a user of Table 3 waits for every app.
        result.job("table3-apps", latency, problems)
        return result

    def _check(self, item, ported, report):
        from repro.ir.parser import parse_module
        from repro.ir.printer import print_module
        from repro.ir.verifier import verify_module

        problems = []
        planted = item.spinloops + item.optiloops
        if len(report.spinloops) != planted:
            problems.append(f"{len(report.spinloops)} spinloops found, "
                            f"{planted} planted (incl. optiloops)")
        if len(report.optimistic_loops) != item.optiloops:
            problems.append(f"{len(report.optimistic_loops)} optimistic "
                            f"loops found, {item.optiloops} planted")
        text = print_module(ported)
        if item.name not in self.ir_digests:
            # Later passes compare digests: the same text verifies alike.
            verify_module(parse_module(text))
            self.ir_digests[item.name] = digest(text)
        elif digest(text) != self.ir_digests[item.name]:
            problems.append("ported IR differs from its first port")
        return problems


# -- verify-corpus -------------------------------------------------------------


#: Paper Table 2 levels, in TABLE2_PAPER's column order.
TABLE2_LEVELS = ("original", "expl", "spin", "atomig")


def known_verdict(program, level, model):
    """Recorded verdict of a corpus program at the original or atomig
    level (Table 2 and the alias/extended corpus alike).

    Every program is correct under TSO; its unported original breaks
    under WMM; the AtoMig port verifies under both — except
    ``message_passing_indirect``, whose pointer-parameter flag the
    default type-based location keys miss, so its port still fails
    under WMM (the Table 8 gap).
    """
    if model == "tso":
        return "ok"
    if level == "original" or program == "message_passing_indirect":
        return "bug"
    return "ok"


@dataclass(frozen=True)
class CheckSpec:
    part: str
    program: str
    item: object
    level: str
    model: str
    por: str
    max_steps: int
    expected: str


class VerifyCorpus:
    """Table 2 matrix, PORTHOS-style TSO/WMM pairs, gate clients."""

    name = "verify-corpus"
    imports = ("repro.api", "repro.lang.parser", "repro.lower.lowering",
               "repro.mc.explorer", "repro.mc.dpor", "repro.vm.costs",
               "repro.bench.corpus")

    def setup(self, seed):
        from repro.bench.tables import TABLE2_BENCHMARKS, TABLE2_PAPER

        corpus = corpus_inputs()
        gates = gate_inputs()
        self.inputs = list(corpus.values()) + list(gates.values())
        specs = []
        for program in TABLE2_BENCHMARKS:
            for level, ok in zip(TABLE2_LEVELS, TABLE2_PAPER[program]):
                specs.append(CheckSpec("table2", program, corpus[program],
                                       level, "wmm", "sleep", 600,
                                       "ok" if ok else "bug"))
        for program in corpus_names():
            if program in TABLE2_BENCHMARKS:
                continue
            for level in ("original", "atomig"):
                for model in ("tso", "wmm"):
                    specs.append(CheckSpec(
                        "portability", program, corpus[program], level,
                        model, "sleep", 1500,
                        known_verdict(program, level, model)))
        for program in GATE_PROGRAMS:
            for level in ("original", "atomig"):
                for model in ("tso", "wmm"):
                    for por in ("sleep", "dpor"):
                        # Both gate clients are correct under both models.
                        specs.append(CheckSpec(
                            "gate", program, gates[program], level, model,
                            por, 3000, "ok"))
        stable_rng("verify-order", seed).shuffle(specs)
        self.specs = specs

    def run_pass(self, tracer):
        result = PassResult()
        gate_verdicts = {}
        gc.collect()
        for spec in self.specs:
            name = (f"{spec.part}:{spec.program}:{spec.level}:"
                    f"{spec.model}:{spec.por}")
            item = spec.item
            try:
                started = time.perf_counter()
                compiled, tokens = layers.compile_text(
                    tracer, item.source, item.name)
                module, report = compiled, None
                if spec.level != "original":
                    module, report = layers.port(tracer, compiled,
                                                 spec.level)
                outcome = layers.check(
                    tracer, module, spec.model, spec.por, spec.max_steps,
                    STATE_BUDGET)
                cost = layers.barrier_cost(tracer, module)
                latency = time.perf_counter() - started
            except Exception:
                result.crash(name)
                continue
            verdict = outcome_label(outcome.outcome)
            decided = verdict != "truncated"
            problems = []
            if decided and verdict != spec.expected:
                problems.append(f"verdict {verdict}, expected "
                                f"{spec.expected}")
            if spec.part == "gate" and decided:
                gate_verdicts.setdefault(
                    (spec.program, spec.level, spec.model), {}
                )[spec.por] = verdict
            result.job(name, latency, problems, decided=decided)
            result.lines += item.lines
            result.barrier_cost += cost
            count_compile(result, compiled, tokens)
            if report is not None:
                count_port(result, report)
            stats = outcome.stats
            prefix = f"mc.{spec.por}"
            result.count(f"{prefix}.states_visited", stats.states_visited)
            result.count(f"{prefix}.transitions", stats.transitions)
            result.count(f"{prefix}.sleep_prunes", stats.sleep_prunes)
            result.count(f"{prefix}.dedup_hits", stats.dedup_hits)
            result.count(f"{prefix}.races_detected", stats.races_detected)
            result.count(f"{prefix}.backtrack_points",
                         stats.backtrack_points)
            result.count(f"{prefix}.truncated", int(outcome.truncated))
        for key, verdicts in gate_verdicts.items():
            if len(set(verdicts.values())) > 1:
                result.failed += 1
                result.failures.append(
                    f"gate {key}: sleep and dpor disagree {verdicts}")
        return result


# -- optimize-corpus -----------------------------------------------------------


class OptimizeCorpus:
    """AtoMig-ported corpus through the weakener and fence repair."""

    name = "optimize-corpus"
    imports = ("repro.api", "repro.lang.parser", "repro.lower.lowering",
               "repro.opt", "repro.analysis.repair",
               "repro.analysis.robustness", "repro.vm.costs",
               "repro.bench.corpus")

    def setup(self, seed):
        self.inputs = list(corpus_inputs().values())
        self.order = list(self.inputs)
        stable_rng("optimize-order", seed).shuffle(self.order)

    def run_pass(self, tracer):
        result = PassResult()
        gc.collect()
        for item in self.order:
            program = item.name
            try:
                started = time.perf_counter()
                module, tokens = layers.compile_text(
                    tracer, item.source, item.name)
                ported, port_report = layers.port(tracer, module, "atomig")
                robust = layers.robustness(tracer, ported)
                optimized, opt_report = layers.optimize(tracer, ported)
                repairs = [layers.repair(tracer, ported, arch)
                           for arch in ("armv8", "power")]
                cost = (layers.barrier_cost(tracer, optimized)
                        + layers.barrier_cost(tracer, repairs[0][0]))
                latency = time.perf_counter() - started
            except Exception:
                result.crash(program)
                continue
            expected = known_verdict(program, "atomig", "wmm")
            baseline = outcome_label(opt_report.baseline_outcome)
            decided = baseline != "truncated"
            problems = []
            if decided and baseline != expected:
                problems.append(f"baseline {baseline}, expected {expected}")
            if not opt_report.verdict_preserved:
                problems.append(
                    f"optimize changed the verdict {baseline} -> "
                    f"{outcome_label(opt_report.final_outcome)}")
            for (_module, report), arch in zip(repairs, ("armv8", "power")):
                if not report.robust_after:
                    problems.append(f"repair ({arch}) left it non-robust")
            result.job(program, latency, problems, decided=decided)
            result.lines += item.lines
            result.barrier_cost += cost
            count_compile(result, module, tokens)
            count_port(result, port_report)
            result.count("opt.checks_run", opt_report.checks_run)
            result.count("opt.cache_hits", opt_report.cache_hits)
            result.count("opt.robustness_hits", opt_report.robustness_hits)
            result.count("opt.weakened", len(opt_report.weakened))
            result.count("opt.candidates", opt_report.candidates)
            result.count("analysis.robust_modules", int(robust.robust))
            result.count("analysis.repair_actions",
                         sum(len(report.actions) for _m, report in repairs))
        return result
