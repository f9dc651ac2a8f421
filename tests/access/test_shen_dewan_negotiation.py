"""Tests for the Shen & Dewan model and access negotiation."""

import pytest

from repro.access import (
    AccessNegotiator,
    DENIED,
    EXPIRED,
    GRANTED,
    Hierarchy,
    Role,
    RoleBasedPolicy,
    ShenDewanPolicy,
)
from repro.errors import AccessDenied, AccessPolicyError
from repro.sim import Environment


def make_hierarchies():
    subjects = Hierarchy("everyone")
    subjects.add("authors", "everyone")
    subjects.add("alice", "authors")
    subjects.add("bob", "everyone")
    objects = Hierarchy("doc")
    objects.add("sec:1", "doc")
    objects.add("par:1.1", "sec:1")
    objects.add("sec:2", "doc")
    return subjects, objects


def test_hierarchy_basics():
    subjects, _ = make_hierarchies()
    assert subjects.chain("alice") == ["alice", "authors", "everyone"]
    assert subjects.depth("alice") == 2
    assert "alice" in subjects
    with pytest.raises(AccessPolicyError):
        subjects.add("alice", "everyone")
    with pytest.raises(AccessPolicyError):
        subjects.add("x", "ghost")
    with pytest.raises(AccessPolicyError):
        subjects.chain("ghost")


def test_hierarchy_move_and_cycles():
    subjects, _ = make_hierarchies()
    subjects.move("bob", "authors")
    assert subjects.chain("bob") == ["bob", "authors", "everyone"]
    with pytest.raises(AccessPolicyError):
        subjects.move("everyone", "alice")
    with pytest.raises(AccessPolicyError):
        subjects.move("authors", "alice")  # would create a cycle


def test_rights_inherit_down_both_hierarchies():
    subjects, objects = make_hierarchies()
    policy = ShenDewanPolicy(subjects, objects)
    policy.grant("authors", "doc", "read")
    # alice inherits through 'authors'; par:1.1 inherits through 'doc'.
    assert policy.check("alice", "par:1.1", "read")
    # bob is not an author.
    assert not policy.check("bob", "par:1.1", "read")


def test_specific_deny_overrides_general_grant():
    subjects, objects = make_hierarchies()
    policy = ShenDewanPolicy(subjects, objects)
    policy.grant("everyone", "doc", "read")
    policy.deny("alice", "sec:2", "read")
    assert policy.check("alice", "sec:1", "read")
    assert not policy.check("alice", "sec:2", "read")
    assert policy.check("bob", "sec:2", "read")


def test_specific_grant_overrides_general_deny():
    subjects, objects = make_hierarchies()
    policy = ShenDewanPolicy(subjects, objects)
    policy.deny("everyone", "doc", "write")
    policy.grant("alice", "par:1.1", "write")
    assert policy.check("alice", "par:1.1", "write")
    assert not policy.check("alice", "sec:1", "write")


def test_equal_specificity_deny_wins():
    subjects, objects = make_hierarchies()
    policy = ShenDewanPolicy(subjects, objects)
    # Same specificity: (authors, sec:1) grant vs (alice, doc) deny —
    # depths 1+1 = 2 and 2+0 = 2.
    policy.grant("authors", "sec:1", "read")
    policy.deny("alice", "doc", "read")
    assert not policy.check("alice", "sec:1", "read")


def test_unknown_nodes_rejected():
    subjects, objects = make_hierarchies()
    policy = ShenDewanPolicy(subjects, objects)
    with pytest.raises(AccessPolicyError):
        policy.grant("ghost", "doc", "read")
    with pytest.raises(AccessPolicyError):
        policy.grant("alice", "ghost", "read")


def test_require_and_counters():
    subjects, objects = make_hierarchies()
    policy = ShenDewanPolicy(subjects, objects)
    with pytest.raises(AccessDenied):
        policy.require("alice", "doc", "read")
    assert policy.counters["checks"] == 1
    assert policy.counters["entries_examined"] > 0
    assert policy.entry_count == 0


# -- negotiation ---------------------------------------------------------------

@pytest.fixture
def env():
    return Environment()


def make_negotiator(env):
    policy = RoleBasedPolicy()
    return AccessNegotiator(env, policy), policy


def test_negotiation_granted_installs_right(env):
    negotiator, policy = make_negotiator(env)

    def controller_behaviour(req):
        negotiator.respond(req.request_id, "owner", True)

    negotiator.on_request("owner", controller_behaviour)

    def root(env):
        outcome = yield negotiator.request(
            "alice", "doc/sec:1", "write", ["owner"])
        return outcome

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == GRANTED
    assert policy.check("alice", "doc/sec:1", "write")


def test_negotiation_refusal_denies(env):
    negotiator, policy = make_negotiator(env)
    negotiator.on_request(
        "owner", lambda req: negotiator.respond(req.request_id, "owner",
                                                False))

    def root(env):
        outcome = yield negotiator.request(
            "alice", "doc", "write", ["owner"])
        return outcome

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == DENIED
    assert not policy.check("alice", "doc", "write")


def test_negotiation_any_refusal_wins(env):
    negotiator, policy = make_negotiator(env)
    votes = {"owner1": True, "owner2": False}
    for owner in votes:
        negotiator.on_request(
            owner, lambda req, o=owner: negotiator.respond(
                req.request_id, o, votes[o]))

    def root(env):
        outcome = yield negotiator.request(
            "alice", "doc", "write", ["owner1", "owner2"])
        return outcome

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == DENIED


def test_negotiation_expires_without_votes(env):
    negotiator, policy = make_negotiator(env)

    def root(env):
        outcome = yield negotiator.request(
            "alice", "doc", "write", ["silent-owner"], deadline=5.0)
        return (env.now, outcome)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (5.0, EXPIRED)


def test_negotiation_requires_controllers(env):
    negotiator, _ = make_negotiator(env)
    with pytest.raises(AccessPolicyError):
        negotiator.request("alice", "doc", "write", [])


def test_negotiation_foreign_vote_rejected(env):
    negotiator, _ = make_negotiator(env)
    captured = []
    negotiator.on_request("owner", captured.append)
    negotiator.request("alice", "doc", "write", ["owner"]).defuse()
    request_id = captured[0].request_id
    with pytest.raises(AccessPolicyError):
        negotiator.respond(request_id, "impostor", True)


def test_negotiation_late_vote_dropped(env):
    negotiator, _ = make_negotiator(env)
    captured = []
    negotiator.on_request("owner", captured.append)

    def root(env):
        outcome = yield negotiator.request(
            "alice", "doc", "write", ["owner"], deadline=1.0)
        return outcome

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == EXPIRED
    # A vote after expiry must not blow up or change anything.
    negotiator.respond(captured[0].request_id, "owner", True)
    assert negotiator.counters[EXPIRED] == 1
