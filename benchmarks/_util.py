"""Shared helpers for the experiment benches.

Each bench reproduces one figure/claim of the paper (see DESIGN.md §3 and
EXPERIMENTS.md).  Experiments are deterministic simulations, so each runs
once under pytest-benchmark (the interesting output is the printed table
and the shape assertions, not wall-clock timing).

Benches can additionally opt into the standardized telemetry file with
one :func:`record_run` call after their assertions: wall time (captured
by :func:`run_once`), simulated time, event count and a flat dict of key
metric snapshots are merged into ``BENCH_PR3.json`` at the repo root
(override the path with ``REPRO_BENCH_TELEMETRY``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

#: Version tag of the telemetry document format.
TELEMETRY_SCHEMA = "repro-bench/1"

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Wall-clock duration of the most recent run_once() call, consumed by
#: record_run(); benches run one experiment at a time under pytest.
_LAST: Dict[str, float] = {}


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    def timed():
        started = time.perf_counter()
        result = fn()
        _LAST["wall_time_s"] = time.perf_counter() - started
        return result
    return benchmark.pedantic(timed, rounds=1, iterations=1)


def telemetry_path(default: Optional[str] = None) -> str:
    """Where record_run() writes (env override for tests / CI smoke).

    ``default`` names an alternative document (a path relative to the
    repo root, e.g. ``BENCH_PR4.json``) for benches that report into a
    different file; the ``REPRO_BENCH_TELEMETRY`` override still wins.
    """
    fallback = os.path.join(_REPO_ROOT, default) if default \
        else os.path.join(_REPO_ROOT, "BENCH_PR3.json")
    return os.environ.get("REPRO_BENCH_TELEMETRY", fallback)


def _json_value(value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return round(value, 6)
    return str(value)


def record_run(name: str, metrics: Optional[Dict[str, Any]] = None,
               sim_time_s: Optional[float] = None,
               events: Optional[int] = None,
               path: Optional[str] = None) -> Dict[str, Any]:
    """Merge one bench's telemetry entry into the shared document.

    The document is read-modify-written so each bench owns only its own
    entry; unknown top-level keys from future schema versions survive.
    Fields a bench cannot measure (an experiment running many internal
    environments may have no single sim clock) are recorded as null.
    """
    entry = {
        "wall_time_s": round(_LAST.get("wall_time_s", 0.0), 6),
        "sim_time_s": None if sim_time_s is None
        else round(float(sim_time_s), 6),
        "events": None if events is None else int(events),
        "metrics": {key: _json_value(value)
                    for key, value in sorted((metrics or {}).items())},
    }
    path = telemetry_path(path)
    document: Dict[str, Any] = {"schema": TELEMETRY_SCHEMA, "benches": {}}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                loaded = json.load(handle)
        except (OSError, ValueError):
            loaded = None
        if isinstance(loaded, dict) \
                and isinstance(loaded.get("benches"), dict):
            document = loaded
            document["schema"] = TELEMETRY_SCHEMA
    document["benches"][name] = entry
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[Any]]) -> None:
    """Print a compact fixed-width results table."""
    widths = [len(str(h)) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [_fmt(cell) for cell in row]
        rendered_rows.append(rendered)
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
    line = "  ".join("{:<{w}}".format(h, w=w)
                     for h, w in zip(headers, widths))
    print("\n" + "=" * len(line))
    print(title)
    print("=" * len(line))
    print(line)
    print("-" * len(line))
    for rendered in rendered_rows:
        print("  ".join("{:<{w}}".format(cell, w=w)
                        for cell, w in zip(rendered, widths)))


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return "{:.3g}".format(cell)
        return "{:.4g}".format(cell)
    return str(cell)
