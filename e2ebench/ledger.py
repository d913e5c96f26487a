"""Turn pass results into the benchmark's metrics.

End-to-end metrics come from untraced passes; the per-layer ledger from
traced ones.  Names and units here must match ``BENCHMARK.json``.
"""

import math
import statistics

#: Percentile reported as ``job_latency_tail_s``.
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sloc_per_s": "lines/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
    "barrier_cost": "cycles",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "jobs_per_s": "1/s",
}

#: Porter stages reported per layer (``PortingReport.stats``).
CORE_STAGES = ("clone", "inline", "annotations", "spinloops", "optimistic",
               "alias", "fences", "naive", "verify", "count_barriers")
CORE_COUNTERS = ("spinloops_found", "optiloops_found", "verified_functions",
                 "verify_skipped_functions")
MC_COUNTERS = ("states_visited", "transitions", "sleep_prunes",
               "dedup_hits", "races_detected", "backtrack_points",
               "truncated")
POR_BACKENDS = ("sleep", "dpor")
#: Per-layer metrics measured as span time: metric -> span name.
SPAN_SECONDS = {
    "lang.lex_s": "lang.lex",
    "lang.parse_s": "lang.parse",
    "lang.sema_s": "lang.sema",
    "lower.lower_s": "lower.lower",
    "ir.verify_s": "ir.verify",
    "core.atomig.port_s": "core.port.atomig",
    "core.naive.port_s": "core.port.naive",
    "opt.optimize_s": "opt.optimize",
    "analysis.robustness_s": "analysis.robustness",
    "analysis.repair_s": "analysis.repair",
    "serve.submit_s": "serve.submit",
    **{f"mc.{por}.check_s": f"mc.check.{por}" for por in POR_BACKENDS},
}


def percentile(values, percent):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1]


def job_latencies(passes, concurrent):
    """The latency samples the percentiles are taken over.

    Sequential workloads run every job once a pass, alone: each job's
    median time across the passes is its sample, so a burst of load on
    the machine during one pass moves only the jobs it hit, and the
    median over jobs does not jump between the clusters that jobs of
    different sizes form.  Concurrent workloads, whose latency includes
    queueing on each other: every job of every pass.
    """
    if concurrent:
        return [latency for result in passes
                for _name, latency in result.latencies]
    by_job = {}
    for result in passes:
        for name, latency in result.latencies:
            by_job.setdefault(name, []).append(latency)
    return [statistics.median(times) for times in by_job.values()]


def wall_seconds(passes, latencies, concurrent):
    """Time to take the input set from text to reports.

    Sequential workloads: the sum of the jobs' samples (each job's
    median time across passes).  Concurrent workloads, whose jobs
    overlap: the median pass wall.
    """
    if concurrent:
        return statistics.median(result.wall for result in passes)
    return sum(latencies)


def end_to_end(passes, setup_seconds, peak_rss_mb, concurrent=False):
    latencies = job_latencies(passes, concurrent)
    attempted = sum(result.attempted for result in passes)
    wall = wall_seconds(passes, latencies, concurrent)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": wall,
        "sloc_per_s": statistics.median(r.lines for r in passes) / wall,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1 - sum(r.failed for r in passes) / max(attempted, 1),
        "decided_ratio": sum(r.decided for r in passes) / max(attempted, 1),
        "barrier_cost": statistics.median(r.barrier_cost for r in passes),
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_tail_s": percentile(latencies, TAIL_PERCENTILE),
        "jobs_per_s": statistics.median(
            len(r.latencies) for r in passes) / wall,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced, untraced, tracer):
    """The per-layer ledger, per pass, from the traced passes."""
    count = len(traced)
    spans = tracer.self_times()
    counters = {}
    for result in traced:
        for name, value in result.counters.items():
            counters[name] = counters.get(name, 0) + value

    def span_seconds(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for metric, span in SPAN_SECONDS.items():
        put(metric, span_seconds(span) / count, "s")
    put("lang.tokens_per_s",
        ratio(counters.get("lang.tokens", 0), span_seconds("lang.lex")),
        "1/s")
    put("lower.instructions",
        counters.get("lower.instructions", 0) / count, "count")
    for stage in CORE_STAGES:
        put(f"core.{stage}_s", counters.get(f"core.{stage}_s", 0) / count,
            "s")
    for name in CORE_COUNTERS:
        put(f"core.{name}", counters.get(f"core.{name}", 0) / count, "count")
    for por in POR_BACKENDS:
        for name in MC_COUNTERS:
            put(f"mc.{por}.{name}",
                counters.get(f"mc.{por}.{name}", 0) / count, "count")
        put(f"mc.{por}.states_per_s",
            ratio(counters.get(f"mc.{por}.states_visited", 0),
                  span_seconds(f"mc.check.{por}")), "1/s")
    put("opt.checks_run", counters.get("opt.checks_run", 0) / count, "count")
    put("opt.robustness_hits",
        counters.get("opt.robustness_hits", 0) / count, "count")
    hits = counters.get("opt.cache_hits", 0)
    put("opt.oracle_hit_ratio",
        ratio(hits, hits + counters.get("opt.checks_run", 0)), "ratio")
    put("opt.accept_ratio", ratio(counters.get("opt.weakened", 0),
                                  counters.get("opt.candidates", 0)), "ratio")
    put("analysis.robust_modules",
        counters.get("analysis.robust_modules", 0) / count, "count")
    put("analysis.repair_actions",
        counters.get("analysis.repair_actions", 0) / count, "count")
    put("serve.queue_wait_s",
        counters.get("serve.queue_wait_s", 0) / count, "s")
    put("serve.run_s", counters.get("serve.run_s", 0) / count, "s")
    put("serve.dedup_hit_ratio",
        ratio(counters.get("serve.dedup_hits", 0),
              counters.get("serve.submitted", 0)), "ratio")
    put("core.workers.busy_s",
        counters.get("core.workers.busy_s", 0) / count, "s")
    traced_wall = sum(result.wall for result in traced)
    put("trace.span_coverage", tracer.coverage(traced_wall), "ratio")
    put("trace.overhead_s",
        statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in untraced), "s")
    return metrics


def self_time_table(tracer, wall):
    """Lines of the per-layer self-time table, largest first."""
    rows = sorted(tracer.self_times().items(), key=lambda item: -item[1][2])
    lines = [f"{'span':28s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s} "
             f"{'self/wall':>9s}"]
    for name, (calls, total, own) in rows:
        lines.append(f"{name:28s} {calls:7d} {total:10.4f} {own:10.4f} "
                     f"{100 * own / wall if wall else 0.0:8.1f}%")
    return lines
