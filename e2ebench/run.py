"""One benchmark from source text to verdict.

Usage, from the repository root::

    python3 e2ebench/run.py --workload port-apps --seed 1 --seconds 20 --trace 0

Workloads: ``port-apps``, ``verify-corpus``, ``optimize-corpus``,
``serve-mixed`` (see ``BENCHMARK.json`` for why each was chosen).  A
run sets the workload up several times (reporting the median as
``setup_s``), then repeats passes over its fixed input set until the
next pass would overrun ``--seconds``; every pass checks its outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer ledger, the
self-time table, span coverage and tracing overhead; it also writes a
Chrome trace-event file under ``e2ebench/out/``.  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("port-apps", "verify-corpus", "optimize-corpus", "serve-mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the AtoMig reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def confine(work_dir):
    """Keep every file the program writes inside ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = work_dir
    os.environ["ATOMIG_FRONTEND_CACHE"] = "0"
    os.environ["ATOMIG_CACHE_DIR"] = os.path.join(work_dir, "cache")
    os.environ["ATOMIG_JOB_DIR"] = os.path.join(work_dir, "jobs")


def make_workload(name, work_dir):
    import workloads

    if name == "serve-mixed":
        from serve_mixed import ServeMixed

        return ServeMixed(work_dir)
    return {
        "port-apps": workloads.PortApps,
        "verify-corpus": workloads.VerifyCorpus,
        "optimize-corpus": workloads.OptimizeCorpus,
    }[name]()


def time_imports(modules):
    """Seconds a fresh interpreter takes to import ``modules``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                   env=env, check=True)
    return time.perf_counter() - started


def set_up(workload, seed):
    """Set the workload up SETUP_REPEATS times; returns the durations.

    Each set-up imports the layers in a fresh interpreter, generates
    the inputs and starts the workload's pools or daemon; all but the
    last are torn down again.  The layers are imported here too, so
    no pass pays for a first import.
    """
    for module in workload.imports:
        importlib.import_module(module)
    durations = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        time_imports(workload.imports)
        workload.setup(seed)
        if hasattr(workload, "start"):
            workload.start()
        durations.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1 and hasattr(workload, "stop"):
            workload.stop()
    return durations


def measure(workload, seconds, tracer):
    """Run passes until the next one would end after ``seconds``.

    With a tracer, passes alternate untraced / traced, and at least one
    of each runs.  Returns ``(untraced, traced)`` pass results.
    """
    from tracing import NULL

    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(untraced) > len(traced)
        pass_started = time.perf_counter()
        result = workload.run_pass(tracer if use_tracer else NULL)
        pass_ended = time.perf_counter()
        if use_tracer:
            tracer.passes.append((pass_started, pass_ended))
            traced.append(result)
        else:
            untraced.append(result)
        spent = pass_ended - started
        per_pass = spent / (len(untraced) + len(traced))
        enough = untraced and (traced or tracer is None)
        if enough and spent + per_pass > seconds:
            return untraced, traced


def git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """blake2b over the program's sources: identifies the code measured
    where no git metadata exists."""
    hasher = hashlib.blake2b(digest_size=16)
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def workload_reason(name):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return None
    for workload in spec.get("workloads", ()):
        if workload.get("name") == name:
            return workload.get("why")
    return None


def run(options, work_dir):
    import ledger
    from tracing import Tracer

    workload = make_workload(options.workload, work_dir)
    tracer = Tracer() if options.trace else None
    try:
        setup_seconds = set_up(workload, options.seed)
        untraced, traced = measure(workload, options.seconds, tracer)
    finally:
        if hasattr(workload, "stop"):
            workload.stop()
    passes = untraced + traced
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    failures = [line for result in passes for line in result.failures]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    meta = {
        "workload": options.workload,
        "why": workload_reason(options.workload),
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "inputs": [item.manifest() for item in workload.inputs],
        "ported_ir_digests": getattr(workload, "ir_digests", None),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "latency_samples": len(ledger.job_latencies(
            untraced, getattr(workload, "concurrent", False))),
        "tail_percentile": ledger.TAIL_PERCENTILE,
        "setup_seconds": setup_seconds,
        "pass_walls": [r.wall for r in untraced],
        "failures": failures[:50],
    }
    if tracer is None:
        metrics = ledger.end_to_end(
            untraced, setup_seconds, peak_rss_mb,
            concurrent=getattr(workload, "concurrent", False))
    else:
        metrics = ledger.per_layer(traced, untraced, tracer)
        traced_wall = sum(result.wall for result in traced)
        trace_path = os.path.join(
            OUT, f"trace-{options.workload}-seed{options.seed}.json")
        tracer.write_chrome_trace(trace_path, meta)
        meta["trace_file"] = os.path.relpath(trace_path, ROOT)
        for line in ledger.self_time_table(tracer, traced_wall):
            print(line)
        print(f"span coverage {metrics['trace.span_coverage']['value']:.2%} "
              f"of {traced_wall:.3f}s traced wall; tracing overhead "
              f"{metrics['trace.overhead_s']['value']:+.4f}s per pass")
    record_path = os.path.join(
        OUT, f"{options.workload}-seed{options.seed}-trace{options.trace}"
             ".json")
    with open(record_path, "w") as handle:
        json.dump({"meta": meta, "metrics": metrics}, handle, indent=1)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    options = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program sources at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(OUT, "tmp", f"{options.workload}-{os.getpid()}")
    confine(work_dir)
    try:
        return run(options, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
