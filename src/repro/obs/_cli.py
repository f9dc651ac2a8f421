"""Shared plumbing for the report commands of ``python -m repro``.

One fixed-width table renderer and one dump loader, so every report
clips, formats and complains about truncated dumps identically.  Kept
private (underscore module): the public surfaces are the commands.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.export import load_jsonl_tolerant


def fmt_cell(cell: Any) -> str:
    """Render one table cell (floats at 4 significant digits)."""
    if isinstance(cell, float):
        return "{:.4g}".format(cell)
    return str(cell)


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[Any]], out=None,
                 top: Optional[int] = None) -> None:
    """Print one fixed-width table to ``out`` (default stdout).

    ``top`` clips to the first N rows with an explicit "... more row(s)"
    trailer — tables are pre-sorted by their builders, so clipping is
    deterministic.
    """
    out = out if out is not None else sys.stdout
    rows = list(rows)
    clipped = 0
    if top is not None and len(rows) > top:
        clipped = len(rows) - top
        rows = rows[:top]
    rendered = [[fmt_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    line = "  ".join("{:<{w}}".format(h, w=w)
                     for h, w in zip(headers, widths))
    out.write("\n" + title + "\n")
    out.write("-" * len(line) + "\n")
    out.write(line + "\n")
    for row in rendered:
        out.write("  ".join("{:<{w}}".format(cell, w=w)
                            for cell, w in zip(row, widths)) + "\n")
    if clipped:
        out.write("... {} more row(s); raise --top to see them\n".format(
            clipped))


def load_dump_records(path: str, err=None) -> List[Dict[str, Any]]:
    """Load a JSONL dump for a report.

    Unreadable files and dumps with zero parseable records raise
    :class:`ValueError` with the diagnostic; a partially-truncated dump
    is read tolerantly with a note about the skipped lines on ``err``
    (default stderr).
    """
    err = err if err is not None else sys.stderr
    try:
        records, skipped = load_jsonl_tolerant(path)
    except OSError as exc:
        raise ValueError("cannot read {}: {}".format(path, exc)) from None
    if skipped:
        err.write("note: skipped {} malformed JSONL line(s) (truncated "
                  "dump?)\n".format(skipped))
    if not records:
        raise ValueError("{} contains no parseable records".format(path))
    return records


def extract_meta(records: Iterable[Dict[str, Any]]
                 ) -> Optional[Dict[str, Any]]:
    """The dump's ``{"kind": "meta"}`` provenance record, if present.

    Dumps written before the meta record existed simply return ``None``
    — every loader treats it as optional.
    """
    for record in records:
        if record.get("kind") == "meta":
            return record
    return None


def describe_meta(meta: Optional[Dict[str, Any]]) -> Optional[str]:
    """One human-readable provenance line for a meta record."""
    if not meta:
        return None
    parts = []
    for key in ("workload", "seed", "schema"):
        if key in meta:
            parts.append("{}={}".format(key, meta[key]))
    span = meta.get("sim_time")
    if isinstance(span, (list, tuple)) and len(span) == 2:
        parts.append("sim_time=[{:.4g}s, {:.4g}s]".format(*span))
    for key in sorted(meta):
        if key in ("kind", "schema", "workload", "seed", "sim_time"):
            continue
        parts.append("{}={}".format(key, meta[key]))
    return "meta: " + " ".join(parts) if parts else "meta: (empty)"


def parse_rendered(rendered: str) -> Tuple[str, Dict[str, str]]:
    """Split a rendered instrument key back into (name, labels).

    The inverse of the registry's ``name{k=v,...}`` rendering for the
    label values the middleware actually uses (node/link/actor names,
    reasons, operations).  Label values containing ``,`` or ``=`` are
    not round-trippable and would mis-split; none of the built-in
    instruments produce them.
    """
    if not rendered.endswith("}") or "{" not in rendered:
        return rendered, {}
    name, _, body = rendered.partition("{")
    labels: Dict[str, str] = {}
    for pair in body[:-1].split(","):
        key, _, value = pair.partition("=")
        labels[key] = value
    return name, labels
