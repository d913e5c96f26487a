"""In-memory span recorder for the benchmark's traced runs.

Spans are opened by the benchmark itself around each call into one of
the program's public functions (``tokenize``, ``port_module``,
``check_module``, an HTTP submit...), so the program is measured from
the outside and needs no instrumentation of its own.  A span records
its name, start, end, thread and parent; spans stay in memory and are
written once, at exit, as Chrome trace-event JSON (open the file in
https://ui.perfetto.dev or ``chrome://tracing``).

Untraced runs use :data:`NULL`, whose spans cost one object creation.
"""

import json
import os
import threading
import time


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracer stand-in for untraced passes: records nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name, **args):
        return self._span

    def annotate(self, record, **args):
        pass

    def add_child(self, parent, name, start, end, **args):
        pass


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer, record = self.tracer, self.record
        stack = tracer._stack()
        record["parent"] = stack[-1] if stack else None
        with tracer._lock:
            record["index"] = len(tracer.spans)
            tracer.spans.append(record)
        stack.append(record["index"])
        record["start"] = time.perf_counter()
        return record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        return False


class Tracer:
    """Collects nested, per-thread spans in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        #: (start, end) of every traced pass, for coverage and the
        #: pass track of the exported trace.
        self.passes = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **args):
        """Context manager timing one call; yields the span record."""
        thread = threading.current_thread()
        return _Span(self, {
            "name": name, "tid": thread.ident, "thread": thread.name,
            "args": dict(args),
        })

    def annotate(self, record, **args):
        """Attach counters known only after the call to its span."""
        record["args"].update(args)

    def add_child(self, parent, name, start, end, **args):
        """Record a span measured by the program itself (e.g. a porter
        stage from ``PortingReport.stats``) beneath ``parent``."""
        with self._lock:
            self.spans.append({
                "name": name, "tid": parent["tid"],
                "thread": parent["thread"], "args": dict(args),
                "parent": parent["index"], "index": len(self.spans),
                "start": start, "end": end,
            })

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """{span name: [calls, total seconds, self seconds]}.

        Self time is a span's duration minus the part of it that its
        direct children cover.
        """
        children = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(
                    (record["start"], record["end"])
                )
        table = {}
        for record in self.spans:
            duration = record["end"] - record["start"]
            covered = _union(children.get(record["index"], ()))
            row = table.setdefault(record["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered
        return table

    def coverage(self, wall):
        """Share of ``wall`` seconds covered by top-level spans."""
        if wall <= 0:
            return 0.0
        return _union(
            (record["start"], record["end"]) for record in self.spans
            if record["parent"] is None
        ) / wall

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path, metadata):
        """Write Chrome trace-event JSON (Perfetto / chrome://tracing)."""
        pid = os.getpid()
        tids = {}
        events = []

        def tid_of(record):
            key = (record["tid"], record["thread"])
            if key not in tids:
                tids[key] = len(tids) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tids[key], "args": {"name": record["thread"]},
                })
            return tids[key]

        def micros(seconds):
            return round((seconds - self.origin) * 1e6, 3)

        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": 0, "args": {"name": "passes"}})
        for number, (start, end) in enumerate(self.passes):
            events.append({
                "ph": "X", "name": f"pass {number}", "cat": "bench",
                "pid": pid, "tid": 0, "ts": micros(start),
                "dur": round((end - start) * 1e6, 3),
            })
        for record in sorted(self.spans, key=lambda r: r["start"]):
            events.append({
                "ph": "X", "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "pid": pid, "tid": tid_of(record),
                "ts": micros(record["start"]),
                "dur": round((record["end"] - record["start"]) * 1e6, 3),
                "args": {key: _plain(value)
                         for key, value in record["args"].items()},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)


def _union(intervals):
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def _plain(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
