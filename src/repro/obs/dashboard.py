"""Dashboard CLI: timeline, hot-spot tables and critical paths, one view.

Usage::

    PYTHONPATH=src python -m repro.obs.dashboard run.jsonl
    PYTHONPATH=src python -m repro.obs.dashboard \\
        --workload timeline-demo --seed 31 \\
        --tables node,op --critical-path

Two input modes:

* a **JSONL dump** (positional) mixing ``{"kind": "span"}``,
  ``{"kind": "metric"}`` and ``{"kind": "window"}`` records — e.g. one
  written by :func:`repro.obs.export.dump_jsonl`, with or without a
  ``timeline=`` recorder;
* ``--workload NAME --seed S`` runs a registered workload under a
  recording tracer and reads the timeline windows out of its result
  (the ``timeline-demo`` workload returns them).

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

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs._cli import (
    describe_meta,
    extract_meta,
    load_dump_records,
    render_table,
    row_count,
)
from repro.obs.critical import critical_summary, render_critical
from repro.obs.metrics import _key, _render
from repro.obs.tables import DIMENSIONS, all_tables, render_dimension_table
from repro.obs.timeline import load_windows

DEFAULT_TABLES = "node,link,actor,op,object"


def _gather_workload(name: str, seed: int):
    """Run a workload under a recording tracer; (windows, spans)."""
    from repro.analysis.replay import run_isolated
    from repro.obs.export import span_record
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    result = run_isolated(name, seed, tracer=tracer)
    windows = result.get("windows") or []
    spans = [span_record(span) for span in tracer.spans]
    return windows, spans


def _whole_run(spans: List[Dict[str, Any]],
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


def render_dashboard(data: Dict[str, Any],
                     windows: List[Dict[str, Any]],
                     out=None, top: Optional[int] = None,
                     timeline: bool = False,
                     per_trace: bool = False) -> None:
    out = out if out is not None else sys.stdout
    meta_line = describe_meta(data.get("meta"))
    if meta_line is not None:
        out.write(meta_line + "\n")
    out.write("{} window(s) covering {:.4g}s, {} span(s)\n".format(
        data["windows"], data["duration"], data["spans"]))
    if timeline and windows:
        render_table(
            "timeline",
            ["window", "start (s)", "end (s)", "counters", "delta",
             "histograms"],
            [(("{}*".format(w["index"]) if w.get("partial")
               else w["index"]),
              w["start"], w["end"], len(w["counters"]),
              sum(w["counters"].values()), len(w["histograms"]))
             for w in windows],
            out=out, top=top)
    for dim in data["tables"]:
        render_dimension_table(data["tables"][dim], out=out, top=top)
    if data["critical_path"] is not None:
        render_critical(data["critical_path"], out=out, top=top,
                        per_trace=per_trace)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Timeline, hot-spot and critical-path dashboard "
                    "over a JSONL dump or a registered workload.")
    parser.add_argument("dump", nargs="?", default=None,
                        help="path to a dump_jsonl() file "
                             "(may include window records)")
    parser.add_argument("--workload", default=None, metavar="NAME",
                        help="run this registered workload instead of "
                             "reading a dump")
    parser.add_argument("--seed", type=int, default=31,
                        help="workload seed (default 31)")
    parser.add_argument("--tables", default=DEFAULT_TABLES, metavar="DIMS",
                        help="comma-separated dimensions to roll up "
                             "(default {})".format(DEFAULT_TABLES))
    parser.add_argument("--critical-path", action="store_true",
                        dest="critical",
                        help="aggregate span critical paths into a "
                             "bottleneck table")
    parser.add_argument("--per-trace", action="store_true",
                        help="with --critical-path, also print each "
                             "trace's own path")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-window activity table")
    parser.add_argument("--top", type=row_count, default=None, metavar="N",
                        help="show at most N rows per table")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="text tables (default) or one JSON document")
    options = parser.parse_args(argv)

    if (options.dump is None) == (options.workload is None):
        parser.error("exactly one of DUMP or --workload is required")
    dims = [dim.strip() for dim in options.tables.split(",") if dim.strip()]
    unknown = [dim for dim in dims if dim not in DIMENSIONS]
    if unknown:
        sys.stderr.write("error: unknown table dimension(s): {} "
                         "(have: {})\n".format(
                             ", ".join(unknown),
                             ", ".join(sorted(DIMENSIONS))))
        return 2

    if options.workload is not None:
        try:
            windows, spans = _gather_workload(options.workload,
                                              options.seed)
        except KeyError as exc:
            sys.stderr.write("error: {}\n".format(exc.args[0]))
            return 2
        counters = []
        meta = {"workload": options.workload, "seed": options.seed}
    else:
        records = load_dump_records(options.dump)
        if records is None:
            return 2
        windows = load_windows(records)
        spans = [r for r in records if r.get("kind") == "span"]
        counters = [r for r in records if r.get("kind") == "metric"
                    and r.get("type") == "counter"]
        meta = extract_meta(records)
    windows = windows or _whole_run(spans, counters)

    data = dashboard_data(windows, spans, dims, critical=options.critical,
                          meta=meta)
    try:
        if options.fmt == "json":
            print(json.dumps(data, sort_keys=True, indent=2))
        else:
            render_dashboard(data, windows, top=options.top,
                             timeline=options.timeline,
                             per_trace=options.per_trace)
    except BrokenPipeError:
        # Reader (e.g. ``| head``) closed the pipe early; not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
