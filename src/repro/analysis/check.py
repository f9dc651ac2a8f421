"""The static analyzer's one front door: lint + protocol over a shared
AST index::

    PYTHONPATH=src python -m repro.analysis.check src/
    PYTHONPATH=src python -m repro.analysis.check src/ --passes lint --format json
    PYTHONPATH=src python -m repro.analysis.check --list-passes

The repo is parsed exactly once (:class:`~repro.analysis.ir.RepoIndex`)
and both passes run over that index.  They share the
``# repro: allow-RPRxxx`` suppression syntax — covering the *whole
span* of multi-line statements and decorated defs — and the CLI exits 1
iff any unsuppressed finding remains, so it gates CI.  It exits 2 when
it was given nothing to analyse (a path that does not exist, paths
holding no python file, an empty or unknown ``--passes``): a gate that
analysed nothing must not pass.  Output formats: ``text`` (default) and
``json``.

Which detector catches what — and why this is two passes, not four —
is measured in ``docs/analysis.md`` "What each detector catches".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import protocol
from repro.analysis.ir import RepoIndex
from repro.analysis.lint import (RULES, Finding, lint_tree,
                                 syntax_error_finding)

PASS_NAMES = ("lint", "protocol")


def _clock() -> float:
    """Wall time for pass timings (tooling, not simulation)."""
    return time.perf_counter()  # repro: allow-RPR001 (analyzer timing)


def rules_meta() -> Dict[str, Tuple[str, str]]:
    """``code -> (summary, hint)`` across both passes."""
    meta: Dict[str, Tuple[str, str]] = {
        "RPR000": ("file does not parse", "fix the syntax error"),
    }
    for rule in RULES:
        meta[rule.code] = (rule.summary, rule.hint)
    meta.update(protocol.RULE_META)
    return meta


def run_passes(paths: Iterable[str],
               passes: Optional[Iterable[str]] = None,
               respect_suppressions: bool = True
               ) -> Tuple[List[Finding], Dict[str, float]]:
    """Run the selected passes; returns (findings, timings).

    Findings are sorted and suppression-filtered; ``timings`` carries
    per-pass wall seconds plus the ``index`` build cost.  Raises
    :class:`ValueError` rather than report "0 findings" on nothing: an
    unknown or empty pass selection, a path that does not exist, or
    paths under which no python file was found.
    """
    findings, timings, _ = _run(paths, passes, respect_suppressions)
    return findings, timings


def _run(paths: Iterable[str], passes: Optional[Iterable[str]],
         respect_suppressions: bool
         ) -> Tuple[List[Finding], Dict[str, float], int]:
    """:func:`run_passes`, plus how many files were analysed."""
    selected = list(passes) if passes is not None else list(PASS_NAMES)
    if not selected:
        raise ValueError("no pass selected; choose from: "
                         + ", ".join(PASS_NAMES))
    for name in selected:
        if name not in PASS_NAMES:
            raise ValueError("unknown pass: " + name)
    paths = list(paths)
    for path in paths:
        if not os.path.exists(path):
            raise ValueError(
                "no such file or directory: {!r}".format(path))
    timings: Dict[str, float] = {}
    started = _clock()
    index = RepoIndex.build(paths)
    timings["index"] = _clock() - started
    if not index.modules:
        raise ValueError("no python files under: " + ", ".join(
            repr(path) for path in paths))

    findings: List[Finding] = []
    if "lint" in selected:
        started = _clock()
        for module in index.modules.values():
            if module.tree is None:
                findings.append(
                    syntax_error_finding(module.path, module.error))
            else:
                findings.extend(lint_tree(module.tree, module.path))
        timings["lint"] = _clock() - started
    if "protocol" in selected:
        started = _clock()
        findings.extend(protocol.analyse(index))
        timings["protocol"] = _clock() - started

    if respect_suppressions:
        findings = [
            finding for finding in findings
            if not finding.suppressed_by(
                index.modules[finding.path].suppressions)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, timings, len(index.modules)


def _render_text(findings: List[Finding], timings: Dict[str, float],
                 analysed: int, show_timings: bool, out) -> None:
    for finding in findings:
        out.write(finding.render() + "\n")
    out.write("{} finding(s); {} file(s) analysed\n".format(
        len(findings), analysed))
    if show_timings:
        total = sum(timings.values())
        table = ", ".join("{} {:.3f}s".format(name, timings[name])
                          for name in sorted(timings))
        out.write("pass timings: {} (total {:.3f}s)\n".format(
            table, total))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.check",
        description="Static analyzer for repro simulator code "
                    "(determinism lint + sim-protocol checker).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyse")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--out", help="write output to this file "
                                      "instead of stdout")
    parser.add_argument("--passes",
                        default=",".join(PASS_NAMES),
                        help="comma-separated subset of: "
                             + ", ".join(PASS_NAMES))
    parser.add_argument("--no-suppress", action="store_true",
                        help="ignore '# repro: allow-...' comments")
    parser.add_argument("--timings", action="store_true",
                        help="print per-pass wall time")
    parser.add_argument("--list-passes", action="store_true",
                        help="print the pass/rule table and exit")
    options = parser.parse_args(argv)

    if options.list_passes:
        meta = rules_meta()
        for name, prefix in (("lint", "RPR0"), ("protocol", "RPR2")):
            print(name)
            for code in sorted(meta):
                if code.startswith(prefix):
                    summary, hint = meta[code]
                    print("  {}  {}\n          fix: {}".format(
                        code, summary, hint))
        return 0

    selected = [name for name in options.passes.split(",") if name]
    try:
        findings, timings, analysed = _run(
            options.paths, selected, not options.no_suppress)
    except ValueError as error:
        print("check: {}".format(error), file=sys.stderr)
        return 2

    out = open(options.out, "w", encoding="utf-8") if options.out \
        else sys.stdout
    try:
        if options.format == "json":
            document = {
                "findings": [finding.to_dict() for finding in findings],
                "timings": {name: round(value, 4)
                            for name, value in sorted(timings.items())},
            }
            json.dump(document, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            _render_text(findings, timings, analysed, options.timings,
                         out)
    finally:
        if options.out:
            out.close()
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
