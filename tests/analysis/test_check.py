"""Tests for the one static CLI: passes, formats, exit codes, gate."""

import os
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis import protocol
from repro.analysis.check import analyse
from repro.analysis.lint import RULES

HERE = os.path.dirname(__file__)
REPO_SRC = os.path.normpath(
    os.path.join(HERE, os.pardir, os.pardir, "src", "repro"))

DIRTY = """
import time


def _stamp():
    return time.time()


def consumer(log, env):
    log.append(_stamp())
    env.timeout(3)
    yield env.timeout(1)
"""


@pytest.fixture
def dirty_tree(tmp_path):
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(textwrap.dedent(DIRTY),
                                  encoding="utf-8")
    return str(pkg)


def _codes(findings):
    return sorted({finding.code for finding in findings})


# -- analyse ----------------------------------------------------------------

def test_all_passes_fire_on_the_dirty_tree(dirty_tree):
    findings, timings, _ = analyse([dirty_tree])
    assert _codes(findings) == [
        "RPR001",   # lint: the wall-clock read
        "RPR201",   # protocol: discarded timeout
    ]
    assert sorted(timings) == ["index", "lint", "protocol"]


def test_every_rule_fires_on_the_fixtures():
    # No rule is left without a fixture that trips it; *where* each
    # fires is the "# expect:" markers' job (test_lint, test_protocol).
    findings, _, _ = analyse([os.path.join(HERE, "fixtures")])
    assert _codes(findings) == sorted(
        {rule.code for rule in RULES} | set(protocol.RULE_META))


def test_pass_subset_runs_only_requested(dirty_tree):
    findings, timings, _ = analyse([dirty_tree], ["protocol"])
    assert _codes(findings) == ["RPR201"]
    assert "lint" not in timings


def test_unknown_pass_raises(dirty_tree):
    with pytest.raises(ValueError):
        analyse([dirty_tree], ["spelling"])


def test_shipped_tree_is_clean():
    findings, _, _ = analyse([REPO_SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


# -- the CLI ----------------------------------------------------------------

def test_cli_exit_codes(dirty_tree, capsys):
    assert main(["check", dirty_tree]) == 1
    assert "RPR201" in capsys.readouterr().out
    assert main(["check", REPO_SRC]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_clean_tree_summary_counts_files_analysed(tmp_path, capsys):
    # "0 finding(s) in 0 file(s)" read as "analysed nothing": the count
    # is of the files analysed, not of those with findings.
    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text("X = 1\n", encoding="utf-8")
    assert main(["check", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "0 finding(s); 3 file(s) analysed\n"


def test_cli_unknown_pass_exits_2(dirty_tree, capsys):
    assert main(["check", dirty_tree, "--passes", "nope"]) == 2
    assert "unknown pass" in capsys.readouterr().err


def test_cli_timings_flag(dirty_tree, capsys):
    main(["check", dirty_tree, "--timings"])
    assert "pass timings:" in capsys.readouterr().out


# -- a gate that analysed nothing must not pass -----------------------------

def test_missing_path_exits_2_and_names_it(tmp_path, capsys):
    missing = str(tmp_path / "scr")
    with pytest.raises(ValueError, match="no such file or directory"):
        analyse([missing])
    assert main(["check", missing]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        "check: no such file or directory: {!r}\n".format(missing)
    assert "0 finding(s)" not in captured.out


def test_one_missing_path_among_good_ones_exits_2(dirty_tree, tmp_path,
                                                  capsys):
    missing = str(tmp_path / "scr")
    assert main(["check", dirty_tree, missing]) == 2
    assert repr(missing) in capsys.readouterr().err


def test_paths_holding_no_python_file_exit_2(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("nothing to parse\n",
                                        encoding="utf-8")
    with pytest.raises(ValueError, match="no python files"):
        analyse([str(tmp_path)])
    assert main(["check", str(tmp_path)]) == 2
    assert repr(str(tmp_path)) in capsys.readouterr().err


def test_empty_pass_selection_exits_2(dirty_tree, capsys):
    with pytest.raises(ValueError, match="no pass selected"):
        analyse([dirty_tree], [])
    assert main(["check", dirty_tree, "--passes", ""]) == 2
    assert "no pass selected" in capsys.readouterr().err


# -- syntax errors ----------------------------------------------------------

def test_unparseable_file_reports_rpr000(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert main(["check", str(tmp_path)]) == 1
    assert "RPR000" in capsys.readouterr().out
