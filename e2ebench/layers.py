"""Calls into each layer of the program, each wrapped in one span.

Every function here takes the pass's tracer first and calls exactly the
public functions a user would, so the benchmark measures the layers
from outside.  Span names are ``<layer>.<call>``; the per-layer ledger
(:mod:`ledger`) is keyed on them.
"""

from repro.analysis.repair import repair_module
from repro.analysis.robustness import analyze_robustness
from repro.api import check_module, optimize_module, port_module
from repro.core.config import PortingLevel
from repro.ir.verifier import verify_module
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.sema import analyze
from repro.lower.lowering import lower_program
from repro.vm.costs import cost_model_for, estimate_cost

ARMV8 = cost_model_for("armv8")


def compile_text(tracer, source, name):
    """Mini-C text to a verified IR module, one span per frontend step.

    The same steps as ``compile_source`` with the frontend cache off;
    lexing is timed apart from parsing so it is not counted twice.
    Returns ``(module, token_count)``.
    """
    with tracer.span("lang.lex"):
        tokens = tokenize(source)
    with tracer.span("lang.parse"):
        program = Parser(tokens).parse_program()
    with tracer.span("lang.sema"):
        program = analyze(program)
    with tracer.span("lower.lower"):
        module = lower_program(program, module_name=name)
    with tracer.span("ir.verify"):
        verify_module(module)
    return module, len(tokens)


def port(tracer, module, level):
    """``port_module`` at ``level``; its stage seconds become children."""
    level = PortingLevel(level)
    with tracer.span(f"core.port.{level.value}") as span:
        ported, report = port_module(module, level)
    if tracer.enabled:
        cursor = span["start"]
        for stage, seconds in report.stats.stage_seconds.items():
            tracer.add_child(span, f"core.{stage}", cursor, cursor + seconds)
            cursor += seconds
    return ported, report


def check(tracer, module, model, por, max_steps, max_states):
    with tracer.span(f"mc.check.{por}", model=model) as span:
        result = check_module(module, model=model, max_steps=max_steps,
                              max_states=max_states, por=por)
    tracer.annotate(span, outcome=result.outcome,
                    states=result.stats.states_visited)
    return result


def robustness(tracer, module):
    with tracer.span("analysis.robustness"):
        return analyze_robustness(module)


def optimize(tracer, module):
    with tracer.span("opt.optimize") as span:
        optimized, report = optimize_module(module)
    tracer.annotate(span, checks=report.checks_run,
                    cache_hits=report.cache_hits)
    return optimized, report


def repair(tracer, module, arch):
    with tracer.span("analysis.repair", arch=arch):
        return repair_module(module, arch=arch)


def barrier_cost(tracer, module):
    """Barrier cost of ``module`` under the Armv8 cost model."""
    with tracer.span("vm.estimate_cost"):
        return estimate_cost(module, ARMV8).barriers


def instruction_count(module):
    return sum(len(block.instructions)
               for function in module.functions.values()
               for block in function.blocks)
