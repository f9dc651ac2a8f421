"""Shared helpers for the experiment benches.

Each bench reproduces one figure/claim of the paper (see DESIGN.md §3 and
EXPERIMENTS.md).  Experiments are deterministic simulations, so each runs
once under pytest-benchmark (the interesting output is the printed table
and the shape assertions, not wall-clock timing; host time is measured
by ``bench/run.py``, nowhere else).
"""

from __future__ import annotations

from typing import Any, List, Sequence


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


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
