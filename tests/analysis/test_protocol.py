"""Tests for the sim-protocol checker (actor contract, RPR2xx)."""

import os
import re
import textwrap

from repro.analysis import protocol
from repro.analysis.ir import RepoIndex

HERE = os.path.dirname(__file__)
FIXTURE_DIR = os.path.join(HERE, "fixtures", "protocol")
FIXTURE = os.path.join(FIXTURE_DIR, "actor_violations.py")

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RPR\d+)")
_SUPPRESSED_RE = re.compile(r"#\s*suppressed:\s*(RPR\d+)")


def _markers(path, regex):
    marked = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            match = regex.search(line)
            if match:
                marked.add((lineno, match.group(1)))
    return marked


def _analyse(paths):
    index = RepoIndex.build(paths)
    return index, protocol.analyse(index)


def _filtered(index, findings):
    return [finding for finding in findings
            if not finding.suppressed_by(
                index.modules[finding.path].suppressions)]


def test_fixture_findings_match_markers():
    index, findings = _analyse([FIXTURE_DIR])
    kept = _filtered(index, findings)
    assert {(f.line, f.code) for f in kept} == _markers(FIXTURE,
                                                        _EXPECT_RE)


def test_suppression_comment_respected():
    index, findings = _analyse([FIXTURE_DIR])
    raw = {(f.line, f.code) for f in findings}
    expected = _markers(FIXTURE, _EXPECT_RE) \
        | _markers(FIXTURE, _SUPPRESSED_RE)
    assert raw == expected


def test_actor_detection():
    index, _ = _analyse([FIXTURE_DIR])
    by_name = {info.name: info
               for info in index.modules[FIXTURE].functions}
    assert protocol.is_actor(by_name["impatient"])
    assert not protocol.is_actor(by_name["plain_iterator"])
    assert by_name["hot_claim"].fast_path
    assert not by_name["cool_claim"].fast_path
    # PR 10 fixtures: fast-path generators are actors *and* fast-path,
    # so they get both RPR204 walks; the explicit claim/release shape
    # (the packet carry's idiom) stays clean.
    assert by_name["hot_carrier"].fast_path
    assert protocol.is_actor(by_name["hot_carrier"])
    assert by_name["hot_explicit"].fast_path
    assert by_name["hot_span"].fast_path


def test_self_env_attribute_counts_as_actor():
    index = RepoIndex()
    index.add_source(textwrap.dedent("""
        class Node:
            def run(self):
                self.env.timeout(3)
                yield self.env.timeout(1)
        """), "src/repro/selfenv.py")
    findings = protocol.analyse(index)
    assert [f.code for f in findings] == ["RPR201"]


def test_trigger_then_return_is_one_path():
    index = RepoIndex()
    index.add_source(textwrap.dedent("""
        def actor(env, done):
            while True:
                yield env.timeout(1)
                if env.now > 3:
                    done.succeed(1)
                    return
            done.fail(ValueError())
        """), "src/repro/paths.py")
    assert protocol.analyse(index) == []


def test_loop_reassignment_resets_the_trigger_count():
    index = RepoIndex()
    index.add_source(textwrap.dedent("""
        def actor(env, pending):
            for event in pending:
                yield env.timeout(1)
                event.succeed(True)
        """), "src/repro/loopfresh.py")
    assert protocol.analyse(index) == []


def test_findings_carry_function_qualnames():
    _, findings = _analyse([FIXTURE_DIR])
    assert all(finding.function for finding in findings)
