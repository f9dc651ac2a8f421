"""Exporters: JSONL span/metric dumps and Chrome ``trace_event`` JSON.

The JSONL form is the machine-readable record the dashboard and
profile CLIs consume — one JSON object per line, ``{"kind": "span",
...}``, ``{"kind": "metric", ...}`` or ``{"kind": "window", ...}``.
The Chrome form opens directly in
``about:tracing`` / Perfetto: spans become complete (``"ph": "X"``)
events, grouped into one pseudo-thread per node, with simulated seconds
mapped onto microseconds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.span import Span
from repro.obs.tracer import NoopTracer, Tracer, get_tracer

#: Chrome trace timestamps are microseconds; simulated time is seconds.
MICROSECONDS = 1e6

#: Schema tag stamped on the leading ``{"kind": "meta"}`` dump record.
META_SCHEMA = "repro-obs/1"


def span_record(span: Span) -> Dict[str, Any]:
    """One JSONL row for a span."""
    record = span.to_dict()
    record["kind"] = "span"
    return record


def meta_record(**fields: Any) -> Dict[str, Any]:
    """The leading dump record: provenance for whoever reads it later.

    Conventional fields: ``seed``, ``workload``, ``sim_time`` (a
    ``[start, end]`` pair of simulated seconds).  Anything JSON-safe
    may ride along; ``kind`` and ``schema`` are stamped automatically.
    """
    record: Dict[str, Any] = {"kind": "meta", "schema": META_SCHEMA}
    record.update(fields)
    return record


def dump_jsonl(path: str, tracer: Optional[Tracer] = None,
               metrics: Optional[MetricsRegistry] = None,
               timeline=None,
               meta: Optional[Dict[str, Any]] = None) -> int:
    """Write meta, spans, metrics and windows; returns line count.

    With no explicit ``tracer``/``metrics`` the process-wide defaults are
    exported (the no-op tracer exports zero span lines).  ``timeline``
    optionally takes a :class:`~repro.obs.timeline.TimelineRecorder`
    (or any iterable of window dicts) whose ``{"kind": "window"}``
    records are appended — one dump feeds the dashboard and the
    profiler alike.  ``meta`` (a plain dict of
    provenance fields, see :func:`meta_record`) becomes the dump's
    first line; dumps without one remain valid for every loader.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    lines = 0
    with open(path, "w") as handle:
        if meta is not None:
            handle.write(json.dumps(meta_record(**meta), sort_keys=True)
                         + "\n")
            lines += 1
        for span in tracer.spans:
            handle.write(json.dumps(span_record(span)) + "\n")
            lines += 1
        for record in metrics.records():
            handle.write(json.dumps(record) + "\n")
            lines += 1
        if timeline is not None:
            windows = timeline.records() \
                if hasattr(timeline, "records") else timeline
            for window in windows:
                handle.write(json.dumps(window, sort_keys=True) + "\n")
                lines += 1
    return lines


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL dump back into a list of records."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_jsonl_tolerant(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a JSONL dump, skipping malformed lines.

    Dumps from killed runs (or ``tail``-ed fragments of huge dumps) end
    mid-line; the dashboard and profile CLIs should still read the rest.
    Returns ``(records, skipped)`` where ``skipped`` counts lines that
    failed to parse or were not JSON objects.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def chrome_trace(tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Spans as a Chrome ``trace_event`` document (a plain dict).

    Each node name found in span attributes becomes its own ``tid`` so
    Perfetto lays traces out one row per node; spans without a node land
    on tid 0.  Unfinished spans are exported with zero duration.
    """
    tracer = tracer if tracer is not None else get_tracer()
    if isinstance(tracer, NoopTracer):
        return {"traceEvents": []}
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for span in tracer.spans:
        node = str(span.attributes.get("node",
                                       span.attributes.get("src", "")))
        if node not in tids:
            tids[node] = len(tids)
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1,
                "tid": tids[node],
                "args": {"name": node or "(unattributed)"},
            })
        end = span.end if span.end is not None else span.start
        args = dict(span.attributes)
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.status != "ok":
            args["status"] = span.status
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.name.split(".")[0],
            "pid": 1,
            "tid": tids[node],
            "ts": span.start * MICROSECONDS,
            "dur": (end - span.start) * MICROSECONDS,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(path: str, tracer: Optional[Tracer] = None) -> int:
    """Write the Chrome trace document to ``path``; returns event count."""
    document = chrome_trace(tracer)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])
