"""Shared helpers for the experiment benches.

Each bench reproduces one figure/claim of the paper (see DESIGN.md §3 and
EXPERIMENTS.md).  Experiments are deterministic simulations, and each
``test_*`` is a plain pytest test that calls its experiment directly:
the output is the printed table and the claims, not wall-clock timing
(host time is measured by ``bench/run.py``, nowhere else).  Nothing
clears the interpreter's profile or trace hook around an experiment,
so a ``sys.setprofile`` trace of ``pytest benchmarks/`` sees every call
it makes.

An experiment that draws randomness is a ``run(seed, param) -> row``
over its arms or sweep, and a claim ``claim_holds(rows)`` on one seed's
rows in param order.  :func:`sweep` runs it at every seed in
:data:`SEEDS`; :func:`check` asserts that the claim holds on at least
:data:`CLAIM_FRACTION` of them, and :func:`finding` prints a shape that
holds on fewer without asserting it.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Mapping, Sequence

SEEDS = range(20)
CLAIM_FRACTION = 0.95

Row = Dict[str, Any]
Sweeps = Dict[int, List[Row]]


def sweep(run: Callable[[int, Any], Row], params: Sequence[Any]) -> Sweeps:
    """``run(seed, param)`` at every seed: ``{seed: [row per param]}``."""
    return {seed: [run(seed, param) for param in params] for seed in SEEDS}


def holds_on(sweeps: Sweeps, claim: Callable[[List[Row]], bool]) -> float:
    """The fraction of seeds whose rows satisfy ``claim``."""
    return sum(bool(claim(rows)) for rows in sweeps.values()) / len(sweeps)


def check(sweeps: Sweeps, claim: Callable[[List[Row]], bool],
          label: str) -> float:
    """Print a declared claim's fraction of seeds and assert it."""
    fraction = holds_on(sweeps, claim)
    print("claim {}: holds on {:.0%} of seeds".format(label, fraction))
    assert fraction >= CLAIM_FRACTION, label
    return fraction


def finding(sweeps: Sweeps, claim: Callable[[List[Row]], bool],
            label: str) -> float:
    """Print a shape that is reported, not declared: never asserted."""
    fraction = holds_on(sweeps, claim)
    print("finding {}: holds on {:.0%} of seeds (not asserted)".format(
        label, fraction))
    return fraction


def one_way(topology: Any, src: str, dst: str, wire_bytes: int) -> float:
    """Seconds a datagram of ``wire_bytes`` takes from ``src`` to
    ``dst`` on an idle path: each hop's transmission and latency."""
    return sum(link.transmission_delay(wire_bytes) + link.latency
               for link in topology.path(src, dst))


def print_sweep(title: str, param_header: str, params: Sequence[Any],
                sweeps: Sweeps, columns: Mapping[str, str]) -> None:
    """One line per param: each column's median and range over the seeds.

    ``columns`` maps a header to the row key it reads.
    """
    lines = []
    for i, param in enumerate(params):
        at_param = [rows[i] for rows in sweeps.values()]
        lines.append([param] + [_spread([row[key] for row in at_param])
                                for key in columns.values()])
    print_table("{}: median (range) over {} seeds".format(title, len(sweeps)),
                [param_header] + list(columns), lines)


def _spread(values: Sequence[Any]) -> str:
    if not all(isinstance(value, (int, float)) for value in values):
        return "/".join(sorted({str(value) for value in values}))
    median, low, high = (_fmt(float(value)) for value in (
        statistics.median(values), min(values), max(values)))
    return median if low == high else "{} ({}–{})".format(median, low, high)


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
