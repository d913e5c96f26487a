"""JobDaemon: execution, dedup, priority, cancel, drain, failures."""

import re

import pytest

from repro import modcache
from repro.api import compile_source, port_module
from repro.core.config import PortingLevel
from repro.core.workers import shutdown_pools
from repro.serve.queue import JobDaemon, execute_payload, job_dedup_key
from repro.serve.store import JobStore

BROKEN_SOURCE = "int main( {"

#: Keys that legitimately differ between two runs over identical input:
#: wall-clock timings.  Everything else in a report must be bit-for-bit.
TIMING_KEYS = ("porting_seconds", "stats", "build_seconds", "port_seconds")


def normalized(report_dict):
    return {k: v for k, v in report_dict.items() if k not in TIMING_KEYS}


# -- dedup key ---------------------------------------------------------------


def test_dedup_key_is_stable(port_payload):
    assert job_dedup_key("port", port_payload()) == \
        job_dedup_key("port", port_payload())


def test_dedup_key_covers_the_code_fingerprint(port_payload, monkeypatch):
    """Both caches key on the code: a changed ``repro`` package must
    never be answered from results the old code computed."""
    source = port_payload()["modules"][0]["source"]
    digest = modcache.source_digest(source, "mp.c")
    key = job_dedup_key("port", port_payload())
    monkeypatch.setattr(modcache, "code_fingerprint", lambda: "other-code")
    assert modcache.source_digest(source, "mp.c") != digest
    assert job_dedup_key("port", port_payload()) != key


def test_dedup_key_covers_kind_level_config_and_source(port_payload):
    base = job_dedup_key("port", port_payload())
    assert job_dedup_key("check", port_payload()) != base
    assert job_dedup_key("port", port_payload(level="naive")) != base
    assert job_dedup_key(
        "port", port_payload(config={"detect_polling_loops": True})
    ) != base
    changed = port_payload()
    changed["modules"][0]["source"] += "\n// touched\n"
    assert job_dedup_key("port", changed) != base


# -- execute_payload ---------------------------------------------------------


def test_execute_port_matches_one_shot_report(mp_source, port_payload):
    result = execute_payload("port", port_payload())
    assert result["kind"] == "port"
    row = result["modules"][0]

    module = compile_source(mp_source, "mp.c")
    _ported, report = port_module(module, PortingLevel.ATOMIG)
    assert normalized(row["report"]) == normalized(report.to_dict())
    assert row["barriers"] == [report.ported_explicit_barriers,
                               report.ported_implicit_barriers]


def test_execute_port_rejects_ir_modules():
    payload = {"modules": [{"name": "m", "source": "module m {}",
                            "is_ir": True}]}
    with pytest.raises(ValueError, match="Mini-C"):
        execute_payload("port", payload)


def test_execute_unknown_kind_and_empty_modules():
    with pytest.raises(ValueError, match="unknown job kind"):
        execute_payload("frobnicate", {"modules": [{"source": "x"}]})
    with pytest.raises(ValueError, match="no modules"):
        execute_payload("port", {"modules": []})


def test_execute_check_runs_models(port_payload):
    result = execute_payload(
        "check", port_payload(models=["sc", "wmm"],
                              options={"max_steps": 400})
    )
    outcomes = {(row["model"], row["outcome"])
                for row in result["checks"]}
    assert outcomes == {("sc", "ok"), ("wmm", "ok")}


def test_execute_rejects_unknown_options(port_payload):
    with pytest.raises(ValueError, match="unknown options"):
        execute_payload("port", port_payload(options={"bogus": 1}))


def test_execute_rejects_retired_engine_option(port_payload):
    """There is one exploration engine: a job still naming one is a
    bad request, not a silently ignored knob."""
    for kind in ("check", "optimize"):
        with pytest.raises(ValueError, match="unknown options: engine"):
            execute_payload(kind, port_payload(
                options={"engine": "clone", "max_steps": 400}))


def test_execute_emits_stage_events(port_payload):
    events = []
    execute_payload(
        "port", port_payload(),
        emit=lambda type_, **f: events.append((type_, f)),
    )
    types = [t for t, _f in events]
    assert types[0] == "job_start"
    assert "stage_start" in types and "stage_end" in types
    assert "port_done" in types
    assert types[-1] == "module_done"


def _two_modules(source, level="atomig", **extra):
    payload = {"modules": [{"name": "one", "source": source},
                           {"name": "two", "source": source}],
               "level": level}
    payload.update(extra)
    return payload


def _module_tags(events, type_):
    return [fields["module"] for t, fields in events if t == type_]


def test_in_process_stage_events_carry_their_module(mp_source):
    events = []
    execute_payload(
        "port", _two_modules(mp_source), fanout=1,
        emit=lambda type_, **f: events.append((type_, f)),
    )
    assert not any(t == "fanout" for t, _f in events)
    starts = _module_tags(events, "stage_start")
    assert set(starts) == {"one", "two"}
    assert starts == sorted(starts)  # module one's stages, then two's
    assert _module_tags(events, "stage_end") == starts
    assert _module_tags(events, "port_done") == ["one", "two"]
    assert _module_tags(events, "module_done") == ["one", "two"]


def test_pooled_jobs_announce_fanout_without_stage_events(mp_source):
    events = []
    try:
        result = execute_payload(
            "port", _two_modules(mp_source), fanout=2,
            emit=lambda type_, **f: events.append((type_, f)),
        )
    finally:
        shutdown_pools()
    types = [t for t, _f in events]
    assert types == ["job_start", "fanout", "module_done", "module_done"]
    assert [row["name"] for row in result["modules"]] == ["one", "two"]


def test_modules_sharing_a_source_keep_their_names(mp_source):
    """The per-worker module memo once keyed on source text alone, so
    the second of two identical modules came back under the first's
    name."""
    optimized = execute_payload(
        "optimize", _two_modules(mp_source, options={"max_steps": 400})
    )
    assert [row["report"]["module"] for row in optimized["modules"]] == \
        ["one.atomig", "two.atomig"]
    events = []
    execute_payload(
        "repair", _two_modules(mp_source),
        emit=lambda type_, **f: events.append((type_, f)),
    )
    assert _module_tags(events, "port_done") == ["one", "two"]


# -- daemon ------------------------------------------------------------------


def test_daemon_runs_job_to_done(daemon, port_payload):
    record = daemon.submit("port", port_payload())
    final = daemon.wait(record["id"], timeout=60)
    assert final["state"] == "done"
    assert final["result"]["modules"][0]["report"]["level"] == "atomig"
    assert final["seconds"] > 0
    types = [event["type"] for event in final["events"]]
    assert "stage_start" in types and "port_done" in types


def test_daemon_dedup_is_an_instant_cache_hit(daemon, port_payload):
    first = daemon.submit("port", port_payload())
    done = daemon.wait(first["id"], timeout=60)
    assert done["state"] == "done"

    second = daemon.submit("port", port_payload())
    assert second["state"] == "done"
    assert second["cache_hit"] is True
    assert second["seconds"] == 0.0
    assert second["cached_from"] == first["id"]
    assert normalized(second["result"]["modules"][0]["report"]) == \
        normalized(done["result"]["modules"][0]["report"])
    assert daemon.counters["cache_hits"] == 1


def test_restart_under_new_code_reruns_instead_of_cache_hit(
        store, port_payload, monkeypatch):
    first = JobDaemon(store, workers=1)
    first.start()
    try:
        done = first.wait(first.submit("port", port_payload())["id"],
                          timeout=60)
    finally:
        first.shutdown(drain=True)
    assert done["state"] == "done"

    monkeypatch.setattr(modcache, "code_fingerprint", lambda: "new-code")
    second = JobDaemon(JobStore(store.directory), workers=1)
    second.start()
    try:
        record = second.submit("port", port_payload())
        assert record["cache_hit"] is False
        assert second.wait(record["id"], timeout=60)["state"] == "done"
        # The same code still hits its own results.
        assert second.submit("port", port_payload())["cache_hit"] is True
    finally:
        second.shutdown(drain=True)


def test_daemon_different_config_misses_the_cache(daemon, port_payload):
    first = daemon.submit("port", port_payload())
    daemon.wait(first["id"], timeout=60)
    other = daemon.submit("port", port_payload(level="naive"))
    assert other["cache_hit"] is False


def test_daemon_marks_broken_source_failed(daemon, port_payload):
    record = daemon.submit("port", port_payload(source=BROKEN_SOURCE))
    final = daemon.wait(record["id"], timeout=60)
    assert final["state"] == "failed"
    assert final["error"]
    assert any(event["type"] == "traceback" for event in final["events"])
    # A failed job must never satisfy a later identical submission.
    again = daemon.submit("port", port_payload(source=BROKEN_SOURCE))
    assert again["cache_hit"] is False


def test_daemon_fails_deep_nesting_with_located_error(daemon, port_payload):
    depth = 80
    source = ("int main() { int x; x = " + "(" * depth + "1"
              + ")" * depth + "; return x; }")
    record = daemon.submit("port", port_payload(source=source))
    final = daemon.wait(record["id"], timeout=60)
    assert final["state"] == "failed"
    assert "ParseError" in final["error"]
    assert re.search(r"\b1:\d+: nesting too deep", final["error"])
    assert not any("RecursionError" in event.get("text", "")
                   for event in final["events"])


def test_daemon_rejects_bad_submissions(daemon, port_payload):
    with pytest.raises(ValueError, match="unknown job kind"):
        daemon.submit("frobnicate", port_payload())
    with pytest.raises(ValueError, match="no modules"):
        daemon.submit("port", {"modules": []})
    with pytest.raises(ValueError, match="unknown config knobs"):
        daemon.submit("port", port_payload(config={"warp_drive": 1}))


def test_priority_orders_the_queue(idle_daemon, port_payload):
    low = idle_daemon.submit("port", port_payload(), priority=0)
    high = idle_daemon.submit("port", port_payload(level="naive"),
                              priority=10)
    mid = idle_daemon.submit("port", port_payload(level="spin"),
                             priority=5)
    with idle_daemon._cond:
        order = [idle_daemon._next_job()["id"] for _ in range(3)]
    assert order == [high["id"], mid["id"], low["id"]]


def test_cancel_only_touches_queued_jobs(idle_daemon, port_payload):
    record = idle_daemon.submit("port", port_payload())
    cancelled = idle_daemon.cancel(record["id"])
    assert cancelled["state"] == "cancelled"
    assert idle_daemon.store.load(record["id"])["state"] == "cancelled"
    assert idle_daemon.cancel("no-such-job") is None
    # Terminal jobs are returned as-is, not re-cancelled.
    assert idle_daemon.cancel(record["id"])["state"] == "cancelled"


def test_delete_refuses_non_terminal(idle_daemon, port_payload):
    record = idle_daemon.submit("port", port_payload())
    assert idle_daemon.delete(record["id"]) is False  # still queued
    idle_daemon.cancel(record["id"])
    assert idle_daemon.delete(record["id"]) is True
    assert idle_daemon.get(record["id"]) is None


def test_drain_persists_queued_jobs(store, port_payload):
    daemon = JobDaemon(store, workers=0)
    daemon.start()
    record = daemon.submit("port", port_payload())
    daemon.shutdown(drain=True)
    assert store.load(record["id"])["state"] == "queued"
    with pytest.raises(RuntimeError, match="shutting down"):
        daemon.submit("port", port_payload())


def test_stats_shape(daemon, port_payload):
    record = daemon.submit("port", port_payload())
    daemon.wait(record["id"], timeout=60)
    stats = daemon.stats()
    assert stats["queue_depth"] == 0
    assert stats["states"].get("done") == 1
    assert stats["counters"]["submitted"] == 1
    assert 0.0 <= stats["cache_hit_rate"] <= 1.0
    assert stats["workers"] == 1
    assert not stats["draining"]
