"""Dashboard: hot-spot tables and critical paths, one view.

Usage::

    PYTHONPATH=src python -m repro dashboard run.jsonl
    PYTHONPATH=src python -m repro dashboard timeline-demo --seed 31 \\
        --tables node,op --critical-path

Two sources, told apart by the ``TARGET``:

* a catalogue workload name runs that workload under a recording tracer
  and reads the timeline windows out of its result (the
  ``timeline-demo`` workload returns them);
* anything else is a **JSONL dump** mixing ``{"kind": "span"}``,
  ``{"kind": "metric"}`` and ``{"kind": "window"}`` records — e.g. one
  written by :func:`repro.obs.export.dump_jsonl`, with or without a
  ``timeline=`` recorder.

A source without window records is read as one window covering the
whole run: its duration is the span time range, its counter totals the
dump's counter records (a workload run has spans only), so rates and
node/link/op/object totals are the run's own.

Output is deterministic end to end — sorted rows, deterministic span
ids, sim-time windows — so same-seed invocations are byte-identical,
which is what the CI obs-smoke job asserts.  ``--format json`` emits the
same content as one sorted-keys document.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs._cli import describe_meta
from repro.obs.critical import critical_summary, render_critical
from repro.obs.metrics import _key, _render
from repro.obs.tables import all_tables, render_dimension_table

DEFAULT_TABLES = "node,link,actor,op,object"


def whole_run(spans: List[Dict[str, Any]],
              counters: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """A windowless source as one window: the counter records' totals
    over the finished spans' time range (none when both are empty)."""
    finished = [span for span in spans if span.get("end") is not None]
    if not finished and not counters:
        return []
    return [{
        "kind": "window", "index": 0,
        "start": min((span["start"] for span in finished), default=0.0),
        "end": max((span["end"] for span in finished), default=0.0),
        "counters": {_render(_key(record["name"], record["labels"])):
                     record["value"] for record in counters},
        "histograms": {}, "gauges": {},
    }]


def dashboard_data(windows: List[Dict[str, Any]],
                   spans: List[Dict[str, Any]],
                   dims: Sequence[str],
                   critical: bool = False,
                   meta: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The dashboard as one JSON-safe document."""
    duration = windows[-1]["end"] - windows[0]["start"] if windows else 0.0
    return {
        "meta": meta,
        "windows": len(windows),
        "duration": duration,
        "spans": len(spans),
        "tables": all_tables(windows, spans, dims),
        "critical_path": critical_summary(spans) if critical else None,
    }


def render_dashboard(data: Dict[str, Any], out=None,
                     top: Optional[int] = None) -> None:
    """Print :func:`dashboard_data`'s document as text tables."""
    out = out if out is not None else sys.stdout
    meta_line = describe_meta(data.get("meta"))
    if meta_line is not None:
        out.write(meta_line + "\n")
    out.write("{} window(s) covering {:.4g}s, {} span(s)\n".format(
        data["windows"], data["duration"], data["spans"]))
    for dim in data["tables"]:
        render_dimension_table(data["tables"][dim], out=out, top=top)
    if data["critical_path"] is not None:
        render_critical(data["critical_path"], out=out, top=top)
