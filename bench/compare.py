"""Compare two suite results: ``python3 bench/compare.py OLD.json NEW.json``.

One row per workload × end-to-end metric with both values, the range
each value moves over when any one of its repetitions is left out
(``run.end_to_end``), the relative change, the metric's regression
bound and a verdict:

* ``better`` / ``worse`` — the change exceeds the bound and the two
  ranges do not overlap;
* ``unresolved`` — the change exceeds the bound but the ranges overlap
  (the host was too noisy to tell; measure again, do not call it
  unchanged);
* ``same`` — the change is within the bound.

Simulated metrics repeat exactly for a seed, so *any* change in them is
real (a fall in ``ok_ratio`` included) and is judged without the
overlap test.  Exit status 1 on any ``worse`` row or any rise in failed
operations.

This is a regression screen, not a way to claim a gain: see
``bench/README.md`` for the paired protocol a claim needs.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from names import END_TO_END, SCHEMA, SIMULATED  # noqa: E402


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError("{}: not a {} result".format(path, SCHEMA))
    return document


def verdict(name: str, better: str, bound: float, old: Dict[str, Any],
            new: Dict[str, Any]) -> Tuple[float, str]:
    """(relative change, verdict) of one metric on one workload."""
    before, after = old["value"], new["value"]
    change = (after - before) / before if before else 0.0
    worse = change > 0 if better == "lower" else change < 0
    if name in SIMULATED:
        if after == before:
            return change, "same"
        return change, "worse" if worse else "better"
    if abs(change) <= bound:
        return change, "same"
    overlap = old["low"] <= new["high"] and new["low"] <= old["high"]
    if overlap:
        return change, "unresolved"
    return change, "worse" if worse else "better"


def compare(old: Dict[str, Any], new: Dict[str, Any]
            ) -> Tuple[List[List[str]], List[str]]:
    """Table rows plus the reasons (if any) the comparison fails."""
    rows: List[List[str]] = []
    failures: List[str] = []
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            failures.append(workload + ": missing from the new result")
            continue
        for name, _unit, better, bound in END_TO_END:
            a, b = before["end_to_end"][name], after["end_to_end"][name]
            change, word = verdict(name, better, bound, a, b)
            rows.append([
                workload, name,
                "{:.6g}".format(a["value"]),
                "[{:.4g}..{:.4g}]".format(a["low"], a["high"]),
                "{:.6g}".format(b["value"]),
                "[{:.4g}..{:.4g}]".format(b["low"], b["high"]),
                "{:+.1%}".format(change),
                "{:.0%}".format(bound), word])
            if word == "worse":
                failures.append("{} {}: {:+.1%} (bound {:.0%})".format(
                    workload, name, change, bound))
        if after["failed"] > before["failed"]:
            failures.append("{}: failed operations rose {} -> {}".format(
                workload, before["failed"], after["failed"]))
    return rows, failures


def render(rows: List[List[str]]) -> str:
    headers = ["workload", "metric", "old", "old low..high", "new",
               "new low..high", "change", "bound", "verdict"]
    widths = [max(len(str(row[i])) for row in [headers] + rows)
              for i in range(len(headers))]
    lines = ["  ".join("{:<{}}".format(cell, width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in [headers] + rows]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        old, new = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as error:
        print("compare: {}".format(error), file=sys.stderr)
        return 2
    if (old["seed"], old["scale"]) != (new["seed"], new["scale"]):
        print("compare: results use different seeds or sizes",
              file=sys.stderr)
        return 2
    rows, failures = compare(old, new)
    print(render(rows))
    for failure in failures:
        print("REGRESSION " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
