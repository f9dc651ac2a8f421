"""Tests for the races report: the paper's Figure 2 argument in numbers.

Hard and tickle locks order every access (their conflicts are resolved
by the lock manager, invisibly to the users); soft locks surface both
write-write and read-write conflicts to the social protocol;
notification locks exclude writers from writers but let readers overlap
them.
"""

import io
import json

from repro.analysis import races
from repro.analysis.hb import get_sanitizer
from repro.analysis.races import conflict_sweep, main, render
from repro.concurrency.locks import HARD, NOTIFICATION, SOFT, TICKLE


def test_sweep_matches_the_lock_style_semantics():
    results = conflict_sweep(seed=31)
    hard = results[HARD]["conflicts"]
    tickle = results[TICKLE]["conflicts"]
    soft = results[SOFT]["conflicts"]
    notification = results[NOTIFICATION]["conflicts"]

    # Hard/tickle locks leave nothing unordered.
    assert hard["total"] == 0
    assert tickle["total"] == 0
    # Soft (advisory) locking surfaces strictly more conflicts than
    # hard locking on the same seed — the ISSUE acceptance criterion.
    assert soft["total"] > hard["total"]
    assert soft["write-write"] > 0
    assert soft["read-write"] > 0
    # Notification locks exclude writers only: readers overlap writers.
    assert notification["write-write"] == 0
    assert notification["read-write"] > 0


def test_tickle_resolves_idlers_by_takeover():
    results = conflict_sweep(seed=31, styles=[TICKLE])
    counters = results[TICKLE]["lock_counters"]
    assert counters.get("takeovers", 0) > 0


def test_sweep_isolates_the_global_sanitizer():
    before = get_sanitizer()
    conflict_sweep(seed=31, styles=[HARD])
    assert get_sanitizer() is before


def test_sweep_attaches_sanitizer_summary():
    results = conflict_sweep(seed=31, styles=[SOFT])
    summary = results[SOFT]["summary"]
    assert summary["accesses"] == len(results[SOFT]["accesses"])
    assert summary["conflicts"] == results[SOFT]["conflicts"]


def test_render_tabulates_every_style():
    results = conflict_sweep(seed=31)
    out = io.StringIO()
    render(results, out=out)
    text = out.getvalue()
    for style in (HARD, TICKLE, SOFT, NOTIFICATION):
        assert style in text
    assert "unresolved" in text


def test_cli_exits_zero(capsys):
    assert main(["--styles", HARD, SOFT]) == 0
    out = capsys.readouterr().out
    assert HARD in out and SOFT in out


def test_cli_format_json_includes_gate_meta(capsys):
    assert main(["--styles", HARD, "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["_meta"]["ok"] is True
    assert document["_meta"]["hard_conflicts"] == 0
    assert HARD in document


def test_cli_exits_nonzero_on_hard_conflicts(monkeypatch, capsys):
    leaky = {
        HARD: {"conflicts": {"write-write": 1, "read-write": 0,
                             "total": 1},
               "accesses": [None] * 4,
               "lock_counters": {},
               "wait": {"mean": 0.0}},
    }
    monkeypatch.setattr(races, "conflict_sweep",
                        lambda seed, styles: leaky)
    assert main(["--styles", HARD]) == 1
    assert "regression" in capsys.readouterr().out
    assert main(["--styles", HARD, "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["_meta"]["ok"] is False
