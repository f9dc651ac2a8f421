"""Hot-spot rollup tables over timeline windows and span dumps.

Answers "who is hot?" per label dimension — node, link, actor,
operation, object — by folding two complementary sources into one
table per dimension:

* **timeline windows** (:mod:`repro.obs.timeline`) supply counter
  totals, sustained rates and the *peak window* ("node host3 was
  hottest at t=40s");
* **span dumps** supply exact latency percentiles (p50/p95/p99) per
  dimension value; where a key has no spans, the per-window histogram
  summaries stand in with a count-weighted approximation.

Each table also reports a Zipf-skew coefficient for its dimension: the
negated least-squares slope of ``log(count)`` against ``log(rank)``.
A coefficient near 0 means balanced load; near 1, the classic Zipf
hot-spot profile; above 1, a few keys dominate outright — the signal
the paper's §4.2.1 "pattern of use" management functions exist to
surface.

All rows, keys and ties are ordered deterministically (rate desc, then
key), so same-seed runs render byte-identical tables.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Dict, Iterable, List, Optional

from repro.obs._cli import parse_rendered, render_table
from repro.sim.monitor import Tally

#: Dimension name -> the instrument label it rolls up on, the counter
#: whose per-window delta defines "hot" for the peak column, and (for
#: dimensions that have one) the per-reason drop counter broken out
#: into the ``drops`` column.
DIMENSIONS: Dict[str, Dict[str, Any]] = {
    "node": {"label": "node", "primary": "net.node.sent"},
    "link": {"label": "link", "primary": "net.bytes",
             "drops": "net.link.drops"},
    "actor": {"label": "actor", "primary": None},
    "op": {"label": "op", "primary": "node.op.invocations"},
    # §4.2.1's "pattern of use of objects": the spans that name an
    # object (node.invoke, node.whereis) and UsageMonitor's counter.
    "object": {"label": "oid", "primary": "usage.access"},
}


def zipf_skew(counts: Iterable[float]) -> float:
    """Least-squares slope magnitude of log(count) vs log(rank).

    Positive counts are ranked descending; fewer than two leave the fit
    undefined, reported as 0.0 (no evidence of skew).
    """
    ranked = sorted((float(c) for c in counts if c > 0), reverse=True)
    if len(ranked) < 2:
        return 0.0
    xs = [math.log(rank) for rank in range(1, len(ranked) + 1)]
    ys = [math.log(count) for count in ranked]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return -cov / var


def _span_key(span: Dict[str, Any], label: str) -> Optional[str]:
    """The dimension value a span contributes to (or ``None``)."""
    attrs = span.get("attributes", {})
    value = attrs.get(label)
    if value is None and label == "op":
        # Spans without an explicit op attribute group under their name,
        # so node.invoke{op=post} and bare infrastructure spans both land
        # in the operation table.
        value = span.get("name")
    return None if value is None else str(value)


def dimension_table(dim: str,
                    windows: Optional[List[Dict[str, Any]]] = None,
                    spans: Optional[List[Dict[str, Any]]] = None
                    ) -> Dict[str, Any]:
    """One dimension's rollup as a JSON-safe document.

    ``rows`` are sorted by rate descending (key ascending on ties) —
    already in top-K order, so clipping the list IS the top-K table.
    Each row carries the summed counter totals for the key, the
    sustained rate over the covered duration, the peak window for the
    dimension's primary counter, and latency percentiles.
    """
    if dim not in DIMENSIONS:
        raise KeyError("unknown dimension {!r} (have: {})".format(
            dim, ", ".join(sorted(DIMENSIONS))))
    spec = DIMENSIONS[dim]
    label = spec["label"]
    primary = spec["primary"]
    drops_counter = spec.get("drops")
    windows = windows if windows is not None else []
    spans = spans if spans is not None else []

    duration = 0.0
    if windows:
        duration = windows[-1]["end"] - windows[0]["start"]

    counters: Dict[str, Dict[str, float]] = {}
    peaks: Dict[str, Any] = {}
    hist_acc: Dict[str, List[float]] = {}
    drop_acc: Dict[str, Dict[str, float]] = {}
    for window in windows:
        for rendered, delta in sorted(window.get("counters", {}).items()):
            name, labels = parse_rendered(rendered)
            key = labels.get(label)
            if key is None:
                continue
            per = counters.setdefault(key, {})
            per[name] = per.get(name, 0) + delta
            if name == primary:
                best = peaks.get(key)
                if best is None or delta > best[1]:
                    peaks[key] = (window["start"], delta)
            if name == drops_counter:
                reasons = drop_acc.setdefault(key, {})
                reason = labels.get("reason", "?")
                reasons[reason] = reasons.get(reason, 0) + delta
        for rendered, summary in sorted(
                window.get("histograms", {}).items()):
            name, labels = parse_rendered(rendered)
            key = labels.get(label)
            if key is None:
                continue
            count = summary["count"]
            acc = hist_acc.setdefault(key, [0.0, 0.0, 0.0, 0.0])
            acc[0] += count
            acc[1] += summary["p50"] * count
            acc[2] += summary["p95"] * count
            acc[3] += summary["p99"] * count

    latency: Dict[str, Tally] = {}
    span_counts: Dict[str, int] = {}
    for span in spans:
        key = _span_key(span, label)
        if key is None:
            continue
        span_counts[key] = span_counts.get(key, 0) + 1
        if span.get("end") is None:
            continue
        latency.setdefault(key, Tally(key)).record(
            span["end"] - span["start"])

    rows = []
    for key in sorted(set(counters) | set(latency) | set(span_counts)
                      | set(hist_acc)):
        per = counters.get(key, {})
        if primary is not None and primary in per:
            total = per[primary]
        elif key in span_counts:
            total = span_counts[key]
        else:
            total = sum(per.values())
        tally = latency.get(key)
        if tally is not None:
            lat = {"count": tally.count, "p50": tally.median,
                   "p95": tally.p95, "p99": tally.p99}
        elif key in hist_acc and hist_acc[key][0] > 0:
            # Count-weighted mean of per-window percentiles: an
            # approximation (percentiles do not merge exactly), but a
            # deterministic one, used only when no spans cover the key.
            count, p50, p95, p99 = hist_acc[key]
            lat = {"count": int(count), "p50": p50 / count,
                   "p95": p95 / count, "p99": p99 / count}
        else:
            lat = None
        peak = peaks.get(key)
        row = {
            "key": key,
            "total": total,
            "rate": total / duration if duration > 0 else 0.0,
            "peak_at": peak[0] if peak is not None else None,
            "peak": peak[1] if peak is not None else None,
            "latency": lat,
            "counters": {name: per[name] for name in sorted(per)},
        }
        if drops_counter is not None:
            reasons = drop_acc.get(key, {})
            row["drops"] = {reason: int(reasons[reason])
                            for reason in sorted(reasons)}
        rows.append(row)
    rows.sort(key=lambda row: (-row["rate"], -row["total"], row["key"]))
    return {
        "dimension": dim,
        "label": label,
        "primary": primary,
        "drops_counter": drops_counter,
        "duration": duration,
        "rows": rows,
        "zipf_skew": zipf_skew(row["total"] for row in rows),
    }


def all_tables(windows: Optional[List[Dict[str, Any]]] = None,
               spans: Optional[List[Dict[str, Any]]] = None,
               dims: Optional[Iterable[str]] = None
               ) -> Dict[str, Dict[str, Any]]:
    """``dimension_table`` for each requested dimension, keyed by name."""
    chosen = list(dims) if dims is not None else sorted(DIMENSIONS)
    return {dim: dimension_table(dim, windows, spans) for dim in chosen}


def render_dimension_table(doc: Dict[str, Any], out=None,
                           top: Optional[int] = None) -> None:
    """Print one rollup document as a fixed-width table."""
    out = out if out is not None else sys.stdout

    def lat(row: Dict[str, Any], stat: str) -> Any:
        return row["latency"][stat] if row["latency"] else "-"

    def drops_cell(row: Dict[str, Any]) -> str:
        reasons = row.get("drops") or {}
        return ",".join("{}:{}".format(reason, count)
                        for reason, count in sorted(reasons.items())
                        ) or "-"

    with_drops = doc.get("drops_counter") is not None
    headers = [doc["dimension"], "total", "rate/s", "p50 (s)", "p95 (s)",
               "p99 (s)", "peak", "hot at (s)"]
    if with_drops:
        headers.append("drops")
    rows = []
    for row in doc["rows"]:
        cells = [row["key"], row["total"], row["rate"],
                 lat(row, "p50"), lat(row, "p95"), lat(row, "p99"),
                 row["peak"] if row["peak"] is not None else "-",
                 row["peak_at"] if row["peak_at"] is not None else "-"]
        if with_drops:
            cells.append(drops_cell(row))
        rows.append(cells)
    render_table("hot spots by {}".format(doc["dimension"]),
                 headers, rows, out=out, top=top)
    out.write("zipf skew ({}): {:.3f} over {} key(s)\n".format(
        doc["dimension"], doc["zipf_skew"], len(doc["rows"])))
