"""Races report: conflicts each lock style leaves to the social protocol.

Runs the E3 contended-editing workload under every lock style with the
happens-before sanitizer enabled and tabulates what each style left
unordered.  This is the paper's Figure 2 argument in numbers: hard
locks order everything (walling users off), soft locks order nothing
while surfacing every conflict, tickle and notification locks sit in
between::

    PYTHONPATH=src python -m repro.analysis.races
    PYTHONPATH=src python -m repro.analysis.races --seed 7 --format json

Exit status is non-zero when the *hard* lock style reports unresolved
conflicts: hard locks serialise every access by construction, so any
happens-before residue there is a sanitizer or lock-protocol regression
rather than CSCW-interesting behaviour — CI treats it as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Sequence

from repro.analysis.hb import ConflictSanitizer
from repro.analysis.replay import run_isolated
from repro.concurrency.locks import STYLES


def conflict_sweep(seed: int = 31,
                   styles: Sequence[str] = STYLES
                   ) -> Dict[str, Dict[str, Any]]:
    """Run the lock-style workload per style with a fresh sanitizer."""
    results: Dict[str, Dict[str, Any]] = {}
    for style in styles:
        sanitizer = ConflictSanitizer()
        result = run_isolated("locks-" + style, seed, sanitizer=sanitizer)
        result["summary"] = sanitizer.summary()
        results[style] = result
    return results


def render(results: Dict[str, Dict[str, Any]], out=None) -> None:
    out = out if out is not None else sys.stdout
    headers = ["style", "accesses", "write-write", "read-write",
               "unresolved", "lock conflicts", "takeovers", "mean wait"]
    rows = []
    for style, result in results.items():
        conflicts = result["conflicts"]
        counters = result["lock_counters"]
        rows.append([style, len(result["accesses"]),
                     conflicts["write-write"], conflicts["read-write"],
                     conflicts["total"], counters.get("conflicts", 0),
                     counters.get("takeovers", 0),
                     "{:.3g}".format(result["wait"]["mean"])])
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(str(cell))) for w, cell in zip(widths, row)]
    line = "  ".join("{:<{w}}".format(h, w=w)
                     for h, w in zip(headers, widths))
    out.write("conflicts left to the social protocol, by lock style\n")
    out.write("-" * len(line) + "\n")
    out.write(line + "\n")
    for row in rows:
        out.write("  ".join("{:<{w}}".format(str(cell), w=w)
                            for cell, w in zip(row, widths)) + "\n")
    out.write("\nunresolved = concurrent conflicting accesses no lock "
              "grant,\nfloor possession or causal delivery ordered "
              "(happens-before).\n")


def hard_conflicts(results: Dict[str, Dict[str, Any]]) -> int:
    """Unresolved conflicts under the hard style (should be zero)."""
    hard = results.get("hard")
    if hard is None:
        return 0
    return int(hard["conflicts"]["total"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.races",
        description="Report unresolved concurrent conflicts per lock "
                    "style (E3 workload, sanitizer enabled).")
    parser.add_argument("--seed", type=int, default=31,
                        help="experiment seed (default 31)")
    parser.add_argument("--styles", nargs="+", default=list(STYLES),
                        choices=list(STYLES), help="styles to sweep")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (default text)")
    options = parser.parse_args(argv)
    results = conflict_sweep(seed=options.seed, styles=options.styles)
    leaked = hard_conflicts(results)
    if options.fmt == "json":
        document = dict(results)
        document["_meta"] = {"seed": options.seed,
                             "hard_conflicts": leaked,
                             "ok": leaked == 0}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        render(results)
        if leaked:
            print("ERROR: hard locks left {} conflict(s) unresolved — "
                  "sanitizer or lock-protocol regression".format(leaked))
    return 1 if leaked else 0


if __name__ == "__main__":
    sys.exit(main())
