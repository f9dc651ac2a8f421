"""Tests for Skarra & Zdonik transaction groups and access rules."""

import pytest

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.concurrency import (
    SharedStore,
    TransactionGroup,
    cooperative_rule,
    free_rule,
    serialisable_rule,
)
from repro.errors import ConcurrencyError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_group(env, rule):
    store = SharedStore()
    group = TransactionGroup(env, store, rule=rule)
    group.add_member("alice")
    group.add_member("bob")
    return group, store


def test_membership():
    env = Environment()
    group = TransactionGroup(env, SharedStore())
    group.add_member("alice")
    with pytest.raises(ConcurrencyError):
        group.add_member("alice")
    with pytest.raises(ConcurrencyError):
        group.read("stranger", "k")


def test_rule_names():
    assert serialisable_rule().name == "serialisable"
    assert cooperative_rule().name == "cooperative"
    assert free_rule().name == "free"


def test_cooperative_read_sees_uncommitted_write(env):
    """The paper's co-authoring case: read over the writer's shoulder."""
    group, store = make_group(env, cooperative_rule())
    store.write("section", "draft v0")

    def root(env):
        yield group.write("alice", "section", "draft v1 (in progress)")
        value = yield group.read("bob", "section")
        return value

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "draft v1 (in progress)"
    assert group.counters["cooperative_reads"] == 1
    # Outside the group, the store still shows the committed state.
    assert store.read("section") == "draft v0"


def test_serialisable_rule_blocks_reader_during_write(env):
    group, store = make_group(env, serialisable_rule())
    read_times = []

    def writer(env):
        yield group.write("alice", "section", "v1")
        yield env.timeout(3.0)
        group.release("alice", "section", "write")

    def reader(env):
        yield env.timeout(0.5)
        yield group.read("bob", "section")
        read_times.append(env.now)

    env.process(writer(env))
    env.process(reader(env))
    env.run()
    assert read_times == [3.0]
    assert group.counters["blocked"] == 1


def test_concurrent_writers_excluded_under_cooperative(env):
    group, _ = make_group(env, cooperative_rule())
    write_times = []

    def writer(env, name, delay, hold):
        yield env.timeout(delay)
        yield group.write(name, "section", name)
        write_times.append((name, env.now))
        yield env.timeout(hold)
        group.release(name, "section", "write")

    env.process(writer(env, "alice", 0.0, 2.0))
    env.process(writer(env, "bob", 0.5, 1.0))
    env.run()
    assert write_times == [("alice", 0.0), ("bob", 2.0)]


def test_free_rule_permits_everything(env):
    group, _ = make_group(env, free_rule())
    times = []

    def writer(env, name):
        yield group.write(name, "section", name)
        times.append(env.now)

    env.process(writer(env, "alice"))
    env.process(writer(env, "bob"))
    env.run()
    assert times == [0.0, 0.0]
    assert group.counters["blocked"] == 0


def test_commit_publishes_group_state(env):
    group, store = make_group(env, cooperative_rule())

    def root(env):
        yield group.write("alice", "a", 1)
        yield group.write("bob", "b", 2)
        group.commit()

    proc = env.process(root(env))
    env.run(proc)
    assert store.read("a") == 1
    assert store.read("b") == 2
    assert group.committed
    assert group.counters["commits"] == 1


def test_release_requires_held_access(env):
    group, _ = make_group(env, cooperative_rule())
    with pytest.raises(ConcurrencyError):
        group.release("alice", "k", "write")


def test_group_value_fallbacks(env):
    group, store = make_group(env, cooperative_rule())
    assert group.group_value("missing") is None
    store.write("k", "committed")
    assert group.group_value("k") == "committed"


def test_own_uncommitted_read_not_counted_cooperative(env):
    group, _ = make_group(env, cooperative_rule())

    def root(env):
        yield group.write("alice", "k", "mine")
        value = yield group.read("alice", "k")
        return value

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "mine"
    assert group.counters["cooperative_reads"] == 0


def test_tailoring_with_custom_rule(env):
    """Applications tailor policy by amending the access rules."""
    from repro.concurrency import AccessRule

    # A rule that lets only 'editor-*' members write.
    def predicate(requester, op, key, holders):
        if op == "write":
            return requester.startswith("editor-")
        return True

    store = SharedStore()
    group = TransactionGroup(env, store,
                             rule=AccessRule(predicate, name="editors-only"))
    group.add_member("editor-alice")
    group.add_member("viewer-bob")

    def root(env):
        yield group.write("editor-alice", "k", "ok")
        blocked = group.write("viewer-bob", "k", "nope")
        assert not blocked.triggered  # held forever by policy
        blocked.defuse()

    proc = env.process(root(env))
    env.run(proc)


def test_a_group_read_is_recorded_as_its_members_now():
    with use_sanitizer(ConflictSanitizer()) as sanitizer:
        env = Environment()
    store = SharedStore("d", env=env)
    store.write("k", "committed", writer="bob", at=0.0)
    group = TransactionGroup(env, store)
    group.add_member("alice")

    def root(env):
        yield env.timeout(2.5)
        return (yield group.read("alice", "k"))

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "committed"
    assert [(access.kind, access.actor, access.at)
            for access in sanitizer.accesses] \
        == [("write", "bob", 0.0), ("read", "alice", 2.5)]
