"""Tests for dynamic role-based access control."""

import pytest

from repro.access import ANNOTATE, READ, Role, RoleBasedPolicy, WRITE, \
    pattern_matches
from repro.errors import AccessDenied, AccessPolicyError


def test_pattern_exact_match():
    assert pattern_matches("doc/sec:1", "doc/sec:1")
    assert not pattern_matches("doc/sec:1", "doc/sec:2")
    assert not pattern_matches("doc/sec:1", "doc/sec:1/line:5")
    assert not pattern_matches("doc/sec:1/line:5", "doc/sec:1")


def test_pattern_wildcard():
    assert pattern_matches("*", "anything/at/all")
    assert pattern_matches("doc/*", "doc/sec:1")
    assert pattern_matches("doc/*", "doc/sec:1/line:5")
    assert not pattern_matches("doc/*", "memo/sec:1")


def test_role_allow_and_permits():
    role = Role("author").allow("doc/*", READ, WRITE)
    assert role.permits("doc/sec:1", WRITE)
    assert not role.permits("memo", READ)
    with pytest.raises(AccessPolicyError):
        Role("bad").allow("doc")


def test_policy_define_and_duplicate():
    policy = RoleBasedPolicy()
    policy.define(Role("author"))
    with pytest.raises(AccessPolicyError):
        policy.define(Role("author"))
    with pytest.raises(AccessPolicyError):
        policy.role("ghost")


def test_assign_and_check():
    policy = RoleBasedPolicy()
    policy.define(Role("author").allow("doc/*", READ, WRITE))
    policy.assign("alice", "author")
    assert policy.check("alice", "doc/sec:2", WRITE)
    assert not policy.check("bob", "doc/sec:2", WRITE)


def test_assign_unknown_role():
    policy = RoleBasedPolicy()
    with pytest.raises(AccessPolicyError):
        policy.assign("alice", "ghost")


def test_dynamic_role_change_is_immediate():
    """The E5 shape: role changes take effect with zero latency."""
    policy = RoleBasedPolicy()
    policy.define(Role("reviewer").allow("doc/*", READ, ANNOTATE))
    policy.define(Role("author").allow("doc/*", READ, WRITE))
    policy.assign("alice", "reviewer", at=0.0)
    assert not policy.check("alice", "doc/sec:1", WRITE)
    policy.assign("alice", "author", at=5.0)
    assert policy.check("alice", "doc/sec:1", WRITE)
    assert policy.counters["role_changes"] == 2


def test_fine_grained_line_rights():
    """Constraining access to individual lines of a shared document."""
    policy = RoleBasedPolicy()
    policy.define(Role("line-editor").allow("doc/sec:1/line:45", WRITE))
    policy.assign("alice", "line-editor")
    assert policy.check("alice", "doc/sec:1/line:45", WRITE)
    assert not policy.check("alice", "doc/sec:1/line:46", WRITE)


def test_require_raises_with_roles_listed():
    policy = RoleBasedPolicy()
    policy.define(Role("reader").allow("doc", READ))
    policy.assign("alice", "reader")
    with pytest.raises(AccessDenied, match="reader"):
        policy.require("alice", "doc", WRITE)


def test_roles_of_snapshot():
    policy = RoleBasedPolicy()
    policy.define(Role("a"))
    policy.assign("alice", "a")
    snapshot = policy.roles_of("alice")
    snapshot.add("tampered")
    assert policy.roles_of("alice") == {"a"}


def test_change_log_audit_trail():
    policy = RoleBasedPolicy()
    policy.define(Role("author"))
    policy.assign("alice", "author", at=1.0)
    assert policy.change_log == [(1.0, "alice", "author", True)]
