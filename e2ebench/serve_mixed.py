"""serve-mixed: two closed-loop HTTP clients against an in-process daemon.

Each client sends its next job only after the previous one reached a
terminal record.  The daemon has one job worker, so the two clients'
jobs queue for it.  A client's schedule mixes single-app port jobs (run
in the worker thread, with stage events), two-app port jobs and
two-model check jobs (both fanned out to the persistent process pool)
and exact repeats of its own earlier jobs, which the daemon must answer
from its dedup store.  A job is timed from when it was due — the moment
its client was free to send it — to its terminal record, which the
client learns from the ``/jobs/<id>/events`` stream rather than by
polling.
"""

import gc
import json
import os
import shutil
import threading
import time
import traceback
from dataclasses import dataclass, replace

from inputs import corpus_inputs, serve_apps, stable_rng
from workloads import (
    STATE_BUDGET,
    PassResult,
    count_port,
    known_verdict,
    outcome_label,
)

CLIENTS = 2
#: Repeats per client per pass (dedup hits), as (kind, modules, count):
#: 7 of its 28 submissions.
REPEATS = (("port", 1, 2), ("port", 2, 1), ("check", 1, 4))
#: Keys of a port report that hold timings, not results.
TIMING_KEYS = ("porting_seconds", "stats")


@dataclass(frozen=True)
class Submission:
    kind: str
    #: Input objects (apps or corpus programs).
    modules: tuple
    level: str = "atomig"
    #: True for an exact repeat of an earlier submission of the client.
    repeat: bool = False

    @property
    def key(self):
        return (self.kind, self.level,
                tuple(item.name for item in self.modules))

    def body(self, footer):
        modules = [{"name": item.name, "source": item.source + footer}
                   for item in self.modules]
        if self.kind == "check":
            return dict(kind="check", modules=modules, level=self.level,
                        models=["tso", "wmm"],
                        options={"max_states": STATE_BUDGET,
                                 "max_steps": 1500})
        return dict(kind="port", modules=modules, level=self.level,
                    options={"emit_ir": True})


def pool_size():
    """Process-pool width: one worker per CPU, at most two."""
    return max(1, min(2, os.cpu_count() or 1))


class ServeMixed:
    name = "serve-mixed"
    #: Jobs of the two clients overlap: wall_s is the median pass wall.
    concurrent = True
    imports = ("repro.api", "repro.serve", "repro.serve.http",
               "repro.core.parallel", "repro.mc.parallel",
               "repro.bench.corpus")

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.handle = None
        self.starts = 0

    # -- set-up -------------------------------------------------------------

    def setup(self, seed):
        apps = serve_apps(seed)
        corpus = list(corpus_inputs().values())
        # The seed generates the apps; the schedule is the same for
        # every seed, because the order in which the two clients' jobs
        # meet in the daemon moves pass time by up to a third.
        rng = stable_rng("serve-schedule")
        self.inputs = apps + corpus
        self.schedules = []
        for client in range(CLIENTS):
            # Each of the client's apps is ported alone and in one pair.
            mine = apps[client::CLIENTS]
            fresh = [Submission("port", (app,)) for app in mine]
            fresh += [Submission("port", tuple(mine[i:i + 2]))
                      for i in range(0, len(mine), 2)]
            fresh += [Submission("check", (program,), level=level)
                      for program in corpus[client::CLIENTS]
                      for level in ("original", "atomig")]
            rng.shuffle(fresh)
            schedule = list(fresh)
            for kind, size, count in REPEATS:
                pool = [sub for sub in fresh
                        if sub.kind == kind and len(sub.modules) == size]
                for original in rng.sample(pool, count):
                    position = rng.randrange(
                        schedule.index(original) + 1, len(schedule) + 1)
                    schedule.insert(position, replace(original, repeat=True))
            self.schedules.append(schedule)
        #: app name -> (canonical one-shot port row, its barrier cost),
        #: filled on first use.
        self.references = {}
        self.pass_number = 0

    def start(self):
        """Start the worker pool and the daemon; a fresh job store."""
        from repro.api import start_service
        from repro.core.workers import get_pool
        from repro.serve import ServeClient

        # Fork the pool before the daemon starts any thread.
        get_pool(pool_size())
        self.starts += 1
        self.job_dir = os.path.join(self.work_dir, f"jobs-{self.starts}")
        self.handle = start_service(job_dir=self.job_dir, workers=1,
                                    fanout=pool_size())
        ServeClient(self.handle.url).healthz()

    def stop(self):
        if self.handle is not None:
            self.handle.stop(drain=True)
            self.handle = None
            shutil.rmtree(self.job_dir, ignore_errors=True)

    # -- one pass -----------------------------------------------------------

    def run_pass(self, tracer):
        from repro.serve import ServeClient

        gc.collect()
        # A trailing comment makes every pass's sources new to the
        # dedup store and the workers' module caches.
        footer = f"// pass {self.pass_number}\n"
        self.pass_number += 1
        before = ServeClient(self.handle.url).stats()
        outcomes = [None] * CLIENTS
        threads = [
            threading.Thread(
                target=self._client, name=f"client-{client}",
                args=(tracer, client, footer, outcomes),
            )
            for client in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        after = ServeClient(self.handle.url).stats()

        result = PassResult()
        for rows in outcomes:
            self._check_client(result, rows)
        result.wall = wall
        submitted = (after["counters"]["submitted"]
                     - before["counters"]["submitted"])
        hits = (after["counters"]["cache_hits"]
                - before["counters"]["cache_hits"])
        result.count("serve.dedup_hits", hits)
        result.count("serve.submitted", submitted)
        result.count("core.workers.busy_s",
                      _busy(after) - _busy(before))
        for rows in outcomes:
            for row in rows or ():
                if row.get("record"):
                    self.handle.daemon.delete(row["record"]["id"])
        return result

    def _client(self, tracer, client, footer, outcomes):
        from repro.serve import ServeClient

        api = ServeClient(self.handle.url)
        rows = outcomes[client] = []
        for submission in self.schedules[client]:
            row = {"submission": submission}
            rows.append(row)
            try:
                due = time.perf_counter()
                with tracer.span("serve.submit", kind=submission.kind):
                    record = api.request("POST", "/jobs",
                                         submission.body(footer))[1]
                with tracer.span("serve.wait"):
                    for _event in api.events(record["id"]):
                        pass
                with tracer.span("serve.fetch"):
                    status, final = api.request(
                        "GET", f"/jobs/{record['id']}/result")
                row["latency"] = time.perf_counter() - due
                row["record"] = final
                if status != 200:
                    row["error"] = f"result HTTP {status}"
            except Exception:
                row["error"] = traceback.format_exc(limit=4).strip()

    # -- output checks --------------------------------------------------------

    def _check_client(self, result, rows):
        originals = {}
        for row in rows:
            submission = row["submission"]
            name = (f"{submission.kind}:{submission.level}:"
                    + "+".join(item.name for item in submission.modules)
                    + (":repeat" if submission.repeat else ""))
            if "latency" not in row:
                result.attempted += 1
                result.failed += 1
                result.failures.append(f"{name}: {row.get('error')}")
                continue
            record = row["record"]
            problems, decided = [], True
            if row.get("error") or record.get("state") != "done":
                problems.append(row.get("error")
                                or f"job {record.get('state')}: "
                                   f"{record.get('error')}")
            elif submission.repeat:
                original = originals.get(submission.key, {})
                if not record.get("cache_hit"):
                    problems.append("repeat was not a dedup hit")
                if record.get("result") != original.get("result"):
                    problems.append("dedup hit differs from its original")
            else:
                originals[submission.key] = record
                if record.get("cache_hit"):
                    problems.append("fresh source answered from the cache")
            if not problems and submission.kind == "port":
                problems += self._check_port(submission, record)
                if not problems and not submission.repeat:
                    result.barrier_cost += sum(
                        self._reference(item)[1]
                        for item in submission.modules)
            elif not problems:
                checks, more = self._check_verdicts(submission, record)
                problems += more
                decided = all(row["outcome"] != "truncated"
                              for row in checks)
            if not record.get("cache_hit") and record.get("started"):
                result.count("serve.queue_wait_s",
                             record["started"] - record["created"])
                result.count("serve.run_s",
                             record["finished"] - record["started"])
                if submission.kind == "port" and not problems:
                    for served in record["result"]["modules"]:
                        count_port(result, served["report"])
            result.job(name, row["latency"], problems, decided=decided)
            result.lines += sum(item.lines for item in submission.modules)

    def _check_port(self, submission, record):
        """Daemon result == one-shot port, timing keys stripped."""
        problems = []
        rows = (record.get("result") or {}).get("modules") or []
        if len(rows) != len(submission.modules):
            return [f"{len(rows)} module results for "
                    f"{len(submission.modules)} modules"]
        for item, served in zip(submission.modules, rows):
            if _strip(served) != self._reference(item)[0]:
                problems.append(f"{item.name}: daemon result differs from "
                                f"the one-shot port")
        return problems

    def _reference(self, item):
        """Canonical one-shot port row of ``item`` and its barrier cost."""
        if item.name not in self.references:
            from repro.core.parallel import PortTask, run_port_task
            from repro.ir.parser import parse_module
            from repro.vm.costs import cost_model_for, estimate_cost

            outcome = run_port_task(PortTask(
                name=item.name, source=item.source, level="atomig",
                emit_ir=True, frontend_cache=False))
            row = _strip({"report": outcome.report.to_dict(),
                          "barriers": outcome.barriers,
                          "ir": outcome.ir_text})
            cost = estimate_cost(parse_module(outcome.ir_text),
                                 cost_model_for("armv8")).barriers
            self.references[item.name] = (row, cost)
        return self.references[item.name]

    def _check_verdicts(self, submission, record):
        checks = (record.get("result") or {}).get("checks") or []
        (program,) = submission.modules
        problems = []
        if len(checks) != 2:
            problems.append(f"{len(checks)} verdicts for 2 models")
        for check in checks:
            verdict = outcome_label(check["outcome"])
            expected = known_verdict(program.name, submission.level,
                                     check["model"])
            if verdict != "truncated" and verdict != expected:
                problems.append(f"{check['model']}: verdict {verdict}, "
                                f"expected {expected}")
        return checks, problems


def _strip(row):
    """A port result row in canonical JSON form without timing keys."""
    row = json.loads(json.dumps(
        {"report": row.get("report"), "barriers": row.get("barriers"),
         "ir": row.get("ir")}, default=str))
    for key in TIMING_KEYS:
        (row["report"] or {}).pop(key, None)
    return row


def _busy(stats):
    return sum(worker["busy_seconds"]
               for pool in (stats.get("pool_stats") or {}).values()
               for worker in pool["workers"].values())

