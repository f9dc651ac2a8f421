"""Races report: conflicts each lock style leaves to the social protocol.

Runs the E3 contended-editing workload under every lock style with the
happens-before sanitizer enabled and tabulates what each style left
unordered.  This is the paper's Figure 2 argument in numbers: hard
locks order everything (walling users off), soft locks order nothing
while surfacing every conflict, tickle and notification locks sit in
between::

    PYTHONPATH=src python -m repro races
    PYTHONPATH=src python -m repro races --format json

Exit status is non-zero when the *hard* lock style reports unresolved
conflicts: hard locks serialise every access by construction, so any
happens-before residue there is a sanitizer or lock-protocol regression
rather than CSCW-interesting behaviour — CI treats it as a failure.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Sequence

from repro.concurrency.locks import STYLES
from repro.obs._cli import render_table
from repro.run import RunSpec, run


def conflict_sweep(seed: int = 31,
                   styles: Sequence[str] = STYLES
                   ) -> Dict[str, Dict[str, Any]]:
    """Run the lock-style workload per style, each with its own sanitizer."""
    results: Dict[str, Dict[str, Any]] = {}
    for style in styles:
        finished = run(RunSpec("locks-" + style, seed))
        results[style] = dict(finished.outcome,
                              summary=finished.sanitizer.summary())
    return results


def render(results: Dict[str, Dict[str, Any]], out=None) -> None:
    """The sweep as one table, a row per lock style."""
    out = out if out is not None else sys.stdout
    render_table(
        "conflicts left to the social protocol, by lock style",
        ["style", "accesses", "write-write", "read-write", "unresolved",
         "lock conflicts", "takeovers", "mean wait"],
        [(style, len(result["accesses"]),
          result["conflicts"]["write-write"],
          result["conflicts"]["read-write"], result["conflicts"]["total"],
          result["lock_counters"].get("conflicts", 0),
          result["lock_counters"].get("takeovers", 0),
          "{:.3g}".format(result["wait"]["mean"]))
         for style, result in results.items()], out=out)
    out.write("\nunresolved = concurrent conflicting accesses no lock "
              "grant,\nfloor possession or causal delivery ordered "
              "(happens-before).\n")


def hard_conflicts(results: Dict[str, Dict[str, Any]]) -> int:
    """Unresolved conflicts under the hard style (should be zero)."""
    hard = results.get("hard")
    if hard is None:
        return 0
    return int(hard["conflicts"]["total"])
