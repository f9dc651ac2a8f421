"""The static analyzer's one front door: lint + protocol over a shared
AST index::

    PYTHONPATH=src python -m repro check src/
    PYTHONPATH=src python -m repro check src/ --passes lint --timings

The repo is parsed exactly once (:class:`~repro.analysis.ir.RepoIndex`)
and both passes run over that index.  They share the
``# repro: allow-RPRxxx`` suppression syntax — covering the *whole
span* of multi-line statements and decorated defs — and the command
exits 1 iff any unsuppressed finding remains, so it gates CI.  It exits
2 when it was given nothing to analyse (a path that does not exist,
paths holding no python file, an empty or unknown ``--passes``): a gate
that analysed nothing must not pass.

Which detector catches what — and why this is two passes, not four —
is measured in ``docs/analysis.md`` "What each detector catches".
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import protocol
from repro.analysis.ir import RepoIndex
from repro.analysis.lint import Finding, lint_tree, syntax_error_finding

PASS_NAMES = ("lint", "protocol")


def _clock() -> float:
    """Wall time for pass timings (tooling, not simulation)."""
    return time.perf_counter()  # repro: allow-RPR001 (analyzer timing)


def analyse(paths: Iterable[str], passes: Optional[Iterable[str]] = None
            ) -> Tuple[List[Finding], Dict[str, float], int]:
    """Run the selected passes; returns (findings, timings, files).

    Findings are sorted and suppression-filtered; ``timings`` carries
    per-pass wall seconds plus the ``index`` build cost, and ``files``
    counts the modules analysed.  Raises :class:`ValueError` rather
    than report "0 findings" on nothing: an unknown or empty pass
    selection, a path that does not exist, or paths under which no
    python file was found.
    """
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

    findings = [finding for finding in findings
                if not finding.suppressed_by(
                    index.modules[finding.path].suppressions)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, timings, len(index.modules)


def render_text(findings: List[Finding], timings: Dict[str, float],
                analysed: int, show_timings: bool, out) -> None:
    """The report: one line per finding, the count, optional timings."""
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
