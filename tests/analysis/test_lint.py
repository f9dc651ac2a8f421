"""Tests for the determinism lint: rules, suppression, CLI, repo-clean.

The CLI is ``python -m repro check --passes lint`` — the lint has no
entry point of its own.

The fixture modules under ``fixtures/`` carry their own expectations:
every line that must be flagged ends with ``# expect: CODE`` and every
line whose finding must be silenced by a ``# repro: allow-...`` comment
ends with ``# suppressed: CODE``.  The tests parse those markers and
assert the linter reports exactly the marked findings — nothing more,
nothing less.
"""

import os
import re

import pytest

from repro.__main__ import main
from repro.analysis.check import analyse
from repro.analysis.lint import RULES, lint_source

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
REPO_SRC = os.path.normpath(
    os.path.join(HERE, os.pardir, os.pardir, "src", "repro"))

FIXTURE_FILES = sorted(
    name for name in os.listdir(FIXTURES)
    if name.endswith(".py") and name != "__init__.py")

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RPR\d+(?:\s*,\s*RPR\d+)*)")
_SUPPRESSED_RE = re.compile(r"#\s*suppressed:\s*(RPR\d+(?:\s*,\s*RPR\d+)*)")


def _markers(path, regex):
    """(line, code) pairs for every marker comment matching ``regex``."""
    marked = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            match = regex.search(line)
            if match:
                for code in match.group(1).split(","):
                    marked.add((lineno, code.strip()))
    return marked


# -- rule registry ----------------------------------------------------------

def test_rule_codes_are_unique_and_well_formed():
    codes = [lint_rule.code for lint_rule in RULES]
    assert len(codes) == len(set(codes))
    assert all(re.fullmatch(r"RPR\d{3}", code) for code in codes)
    assert {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR006"} <= set(codes)


def test_every_rule_has_a_fix_hint():
    for lint_rule in RULES:
        assert lint_rule.hint, lint_rule.code
        assert lint_rule.summary, lint_rule.code


# -- fixtures: each rule fires exactly where marked ------------------------

def _lint(path, respect_suppressions=True):
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path, respect_suppressions)


@pytest.mark.parametrize("filename", FIXTURE_FILES)
def test_fixture_findings_match_markers(filename):
    path = os.path.join(FIXTURES, filename)
    expected = _markers(path, _EXPECT_RE)
    assert expected, "fixture {} marks no expectations".format(filename)
    found = {(f.line, f.code) for f in _lint(path)}
    assert found == expected


@pytest.mark.parametrize("filename", FIXTURE_FILES)
def test_fixture_suppressions_respected_and_overridable(filename):
    path = os.path.join(FIXTURES, filename)
    expected = _markers(path, _EXPECT_RE)
    suppressed = _markers(path, _SUPPRESSED_RE)
    assert suppressed, "fixture {} marks no suppressions".format(filename)
    # Suppressed lines stay silent normally...
    found = {(f.line, f.code) for f in _lint(path)}
    assert not (found & suppressed)
    # ...and reappear when suppressions are not respected.
    unsuppressed = {(f.line, f.code)
                    for f in _lint(path, respect_suppressions=False)}
    assert unsuppressed == expected | suppressed


def test_suppression_comment_covers_the_line_below():
    source = ("import itertools\n"
              "# repro: allow-RPR005 (fixture)\n"
              "_ids = itertools.count(1)\n")
    assert lint_source(source, "fixture.py") == []


def test_syntax_error_reports_rpr000():
    findings = lint_source("def broken(:\n", "broken.py")
    assert [f.code for f in findings] == ["RPR000"]


# -- the repo itself -------------------------------------------------------

def test_repo_source_is_lint_clean():
    findings, _, _ = analyse([REPO_SRC], ["lint"])
    assert findings == [], "\n".join(f.render() for f in findings)


# -- CLI -------------------------------------------------------------------

def test_cli_nonzero_with_codes_on_fixtures(capsys):
    assert main(["check", FIXTURES, "--passes", "lint"]) == 1
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                 "RPR006"):
        assert code in out


def test_cli_zero_on_clean_tree(capsys):
    assert main(["check", REPO_SRC, "--passes", "lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


# -- suppression spans: multi-line statements, decorated defs ---------------

def test_suppression_on_closing_line_of_multiline_statement():
    """The allow comment may sit lines below the flagged expression."""
    source = ("import time\n"
              "\n"
              "\n"
              "def f():\n"
              "    return time.time(\n"
              "        # a wrapped call spanning several lines\n"
              "    )  # repro: allow-RPR001\n")
    assert lint_source(source, "span.py") == []
    findings = lint_source(source, "span.py",
                           respect_suppressions=False)
    assert [(f.line, f.code) for f in findings] == [(5, "RPR001")]


def test_suppression_above_multiline_statement():
    source = ("import time\n"
              "\n"
              "\n"
              "def f():\n"
              "    # repro: allow-RPR001\n"
              "    return time.time(\n"
              "    )\n")
    assert lint_source(source, "span.py") == []


def test_suppression_does_not_leak_past_its_span():
    """The span comment stops at the statement (plus the legacy
    one-line carryover); later findings still report."""
    source = ("import time\n"
              "\n"
              "\n"
              "def f():\n"
              "    a = time.time(\n"
              "    )  # repro: allow-RPR001\n"
              "\n"
              "    b = time.time()\n"
              "    return a, b\n")
    findings = lint_source(source, "span.py")
    assert [(f.line, f.code) for f in findings] == [(8, "RPR001")]


def test_suppression_covers_decorated_def():
    """A def-anchored finding is silenced from above the decorators."""
    import ast

    from repro.analysis import lint as lint_mod

    @lint_mod.rule("RPR998", "every def (test-only rule)", "none")
    def _flag_defs(tree, path):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                yield node, "a def"

    try:
        flagged = ("@staticmethod\n"
                   "def g():\n"
                   "    pass\n")
        findings = lint_source(flagged, "deco.py")
        assert [(f.line, f.code) for f in findings] == [(2, "RPR998")]
        silenced = ("# repro: allow-RPR998\n"
                    "@staticmethod\n"
                    "@classmethod\n"
                    "def g():\n"
                    "    pass\n")
        assert lint_source(silenced, "deco.py") == []
    finally:
        lint_mod.RULES[:] = [r for r in lint_mod.RULES
                             if r.code != "RPR998"]
    assert all(r.code != "RPR998" for r in lint_mod.RULES)
