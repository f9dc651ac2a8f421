"""Tests for the access-matrix baseline, ACLs and capabilities."""

import pytest

from repro.access import AccessMatrix, Capability, READ, WRITE
from repro.errors import AccessDenied, AccessPolicyError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_empty_matrix_denies(env):
    matrix = AccessMatrix(env, administrator="admin")
    assert not matrix.check("alice", "doc", READ)
    with pytest.raises(AccessDenied):
        matrix.require("alice", "doc", READ)


def test_admin_change_applies(env):
    matrix = AccessMatrix(env, administrator="admin")

    def root(env):
        yield matrix.request_change("admin", "alice", "doc", READ)
        return matrix.check("alice", "doc", READ)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value


def test_non_admin_change_rejected(env):
    matrix = AccessMatrix(env, administrator="admin")
    with pytest.raises(AccessDenied):
        matrix.request_change("alice", "alice", "doc", READ)


def test_unknown_right_rejected(env):
    matrix = AccessMatrix(env, administrator="admin")
    with pytest.raises(AccessPolicyError):
        matrix.request_change("admin", "alice", "doc", "fly")


def test_negative_admin_delay_rejected(env):
    with pytest.raises(AccessPolicyError):
        AccessMatrix(env, administrator="admin", admin_delay=-1)


def test_admin_delay_defers_effect(env):
    """The paper's criticism: static administration is slow to react."""
    matrix = AccessMatrix(env, administrator="admin", admin_delay=60.0)
    effective = []

    def root(env):
        at = yield matrix.request_change("admin", "alice", "doc", WRITE)
        effective.append(at)

    env.process(root(env))
    env.run(until=30.0)
    assert not matrix.check("alice", "doc", WRITE)  # still pending
    env.run(until=61.0)
    assert matrix.check("alice", "doc", WRITE)
    assert effective == [60.0]


def test_revocation(env):
    matrix = AccessMatrix(env, administrator="admin")

    def root(env):
        yield matrix.request_change("admin", "alice", "doc", READ)
        yield matrix.request_change("admin", "alice", "doc", READ,
                                    add=False)
        return matrix.check("alice", "doc", READ)

    proc = env.process(root(env))
    env.run(proc)
    assert not proc.value


def test_change_log_records_history(env):
    matrix = AccessMatrix(env, administrator="admin", admin_delay=1.0)

    def root(env):
        yield matrix.request_change("admin", "alice", "doc", READ)

    proc = env.process(root(env))
    env.run(proc)
    assert matrix.change_log == [(1.0, "alice", "doc", "read", True)]


def test_acl_view(env):
    matrix = AccessMatrix(env, administrator="admin")

    def root(env):
        yield matrix.request_change("admin", "alice", "doc", READ)
        yield matrix.request_change("admin", "alice", "doc", WRITE)
        yield matrix.request_change("admin", "bob", "doc", READ)
        yield matrix.request_change("admin", "alice", "other", READ)

    proc = env.process(root(env))
    env.run(proc)
    acl = matrix.acl_of("doc")
    assert acl == {"alice": {READ, WRITE}, "bob": {READ}}


def test_capability_view(env):
    matrix = AccessMatrix(env, administrator="admin")

    def root(env):
        yield matrix.request_change("admin", "alice", "doc", READ)
        yield matrix.request_change("admin", "alice", "memo", WRITE)

    proc = env.process(root(env))
    env.run(proc)
    caps = matrix.capabilities_of("alice")
    assert len(caps) == 2
    assert any(cap.permits("doc", READ) for cap in caps)
    assert any(cap.permits("memo", WRITE) for cap in caps)
    assert not any(cap.permits("doc", WRITE) for cap in caps)


def test_capability_tokens_unique():
    a = Capability("alice", "doc", READ)
    b = Capability("alice", "doc", READ)
    assert a.token != b.token


def test_check_counter(env):
    matrix = AccessMatrix(env, administrator="admin")
    matrix.check("alice", "doc", READ)
    matrix.check("alice", "doc", READ)
    assert matrix.counters["checks"] == 2


def test_zero_admin_delay_applies_at_the_same_instant_after_the_caller(env):
    matrix = AccessMatrix(env, administrator="admin")   # admin_delay 0
    seen = []

    def root(env):
        yield env.timeout(5.0)
        done = matrix.request_change("admin", "alice", "doc", WRITE)
        # The request has returned; the change has not happened yet.
        seen.append((done.triggered, matrix.check("alice", "doc", WRITE)))
        seen.append((yield done))

    env.process(root(env))
    env.run()
    assert seen == [(False, False), 5.0]
    assert matrix.check("alice", "doc", WRITE)
    assert matrix.change_log == [(5.0, "alice", "doc", WRITE, True)]
