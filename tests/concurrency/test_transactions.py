"""Tests for serialisable transactions (the Figure 2a baseline)."""

import pytest

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.concurrency import (
    ABORTED,
    COMMITTED,
    SharedStore,
    TransactionManager,
)
from repro.errors import TransactionAborted
from repro.obs.flight import FlightRecorder, use_flight
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tm(env):
    return TransactionManager(env, SharedStore())


def test_commit_publishes_writes(env, tm):
    def root(env):
        txn = tm.begin("alice")
        yield from tm.write(txn, "doc", "draft-1")
        assert "doc" not in tm.store  # invisible before commit
        yield from tm.commit(txn)
        return tm.store.read("doc")

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "draft-1"
    assert tm.counters["committed"] == 1


def test_writes_invisible_until_commit(env, tm):
    """The 'walls' of Figure 2a: no outside visibility before commit."""
    tm.store.write("doc", "original")
    visible = []

    def writer(env):
        txn = tm.begin("alice")
        yield from tm.write(txn, "doc", "edited")
        yield env.timeout(5.0)
        yield from tm.commit(txn)

    def outside_observer(env):
        yield env.timeout(1.0)
        visible.append((env.now, tm.store.read("doc")))
        yield env.timeout(5.0)
        visible.append((env.now, tm.store.read("doc")))

    env.process(writer(env))
    env.process(outside_observer(env))
    env.run()
    assert visible == [(1.0, "original"), (6.0, "edited")]


def test_read_own_write(env, tm):
    def root(env):
        txn = tm.begin("alice")
        yield from tm.write(txn, "doc", "mine")
        value = yield from tm.read(txn, "doc")
        return value

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "mine"


def test_read_missing_key_returns_none(env, tm):
    def root(env):
        txn = tm.begin("alice")
        value = yield from tm.read(txn, "ghost")
        return value

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value is None


def test_concurrent_readers_allowed(env, tm):
    tm.store.write("doc", "shared")
    times = []

    def reader(env, name):
        txn = tm.begin(name)
        value = yield from tm.read(txn, "doc")
        times.append((name, env.now, value))
        yield env.timeout(1.0)
        yield from tm.commit(txn)

    env.process(reader(env, "alice"))
    env.process(reader(env, "bob"))
    env.run()
    assert times == [("alice", 0.0, "shared"), ("bob", 0.0, "shared")]


def test_writer_blocks_reader_until_commit(env, tm):
    tm.store.write("doc", "v0")
    log = []

    def writer(env):
        txn = tm.begin("writer")
        yield from tm.write(txn, "doc", "v1")
        yield env.timeout(4.0)
        yield from tm.commit(txn)

    def reader(env):
        yield env.timeout(1.0)
        txn = tm.begin("reader")
        value = yield from tm.read(txn, "doc")
        log.append((env.now, value))
        yield from tm.commit(txn)

    env.process(writer(env))
    env.process(reader(env))
    env.run()
    assert log == [(4.0, "v1")]  # blocked until the writer committed


def test_abort_discards_writes(env, tm):
    tm.store.write("doc", "original")

    def root(env):
        txn = tm.begin("alice")
        yield from tm.write(txn, "doc", "scrapped")
        tm.abort(txn)
        assert txn.state == ABORTED
        return tm.store.read("doc")

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "original"
    assert tm.counters["aborted"] == 1


def test_abort_is_idempotent(env, tm):
    txn = tm.begin("alice")
    tm.abort(txn)
    tm.abort(txn)
    assert tm.counters["aborted"] == 1


def test_operations_on_finished_txn_rejected(env, tm):
    def root(env):
        txn = tm.begin("alice")
        yield from tm.commit(txn)
        assert txn.state == COMMITTED
        with pytest.raises(TransactionAborted):
            yield from tm.write(txn, "doc", "late")

    proc = env.process(root(env))
    env.run(proc)


def test_abort_releases_locks(env, tm):
    log = []

    def holder(env):
        txn = tm.begin("alice")
        yield from tm.write(txn, "doc", "x")
        yield env.timeout(1.0)
        tm.abort(txn)

    def waiter(env):
        yield env.timeout(0.5)
        txn = tm.begin("bob")
        yield from tm.write(txn, "doc", "y")
        log.append(env.now)
        yield from tm.commit(txn)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert log == [1.0]
    assert tm.store.read("doc") == "y"


def test_deadlock_detected_and_resolved(env, tm):
    outcomes = {}

    def txn_proc(env, name, first, second, start_delay):
        yield env.timeout(start_delay)
        txn = tm.begin(name)
        try:
            yield from tm.write(txn, first, name)
            yield env.timeout(1.0)
            yield from tm.write(txn, second, name)
            yield from tm.commit(txn)
            outcomes[name] = "committed"
        except TransactionAborted:
            outcomes[name] = "aborted"

    env.process(txn_proc(env, "t1", "A", "B", 0.0))
    env.process(txn_proc(env, "t2", "B", "A", 0.1))
    env.run()
    assert sorted(outcomes.values()) == ["aborted", "committed"]
    assert tm.counters["deadlocks"] == 1


def test_deadlock_victim_leaves_store_clean(env, tm):
    tm.store.write("A", "orig-A")
    tm.store.write("B", "orig-B")

    def txn_proc(env, name, first, second, start_delay):
        yield env.timeout(start_delay)
        txn = tm.begin(name)
        try:
            yield from tm.write(txn, first, name)
            yield env.timeout(1.0)
            yield from tm.write(txn, second, name)
            yield from tm.commit(txn)
        except TransactionAborted:
            pass

    env.process(txn_proc(env, "t1", "A", "B", 0.0))
    env.process(txn_proc(env, "t2", "B", "A", 0.1))
    env.run()
    # The survivor wrote both keys; the victim's writes are nowhere.
    values = {tm.store.read("A"), tm.store.read("B")}
    assert values == {"t1"} or values == {"t2"}


def test_lock_upgrade_shared_to_exclusive(env, tm):
    tm.store.write("doc", "v0")

    def root(env):
        txn = tm.begin("alice")
        value = yield from tm.read(txn, "doc")
        yield from tm.write(txn, "doc", value + "+edit")
        yield from tm.commit(txn)
        return tm.store.read("doc")

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "v0+edit"


def test_serialisability_of_counter_increments(env, tm):
    """Lost-update prevention: increments through txns all survive."""
    tm.store.write("counter", 0)

    def incrementer(env, name):
        for _ in range(5):
            while True:
                txn = tm.begin(name)
                try:
                    value = yield from tm.read(txn, "counter")
                    yield env.timeout(0.01)
                    yield from tm.write(txn, "counter", value + 1)
                    yield from tm.commit(txn)
                    break
                except TransactionAborted:
                    yield env.timeout(0.005)

    env.process(incrementer(env, "alice"))
    env.process(incrementer(env, "bob"))
    env.run()
    assert tm.store.read("counter") == 10


def test_a_transactional_read_is_recorded_as_its_readers_now():
    """The sanitizer sees who read and when, not an anonymous read at
    t=0."""
    with use_sanitizer(ConflictSanitizer()) as sanitizer:
        env = Environment()
    tm = TransactionManager(env, SharedStore("d", env=env))
    tm.store.write("doc", "v0", writer="bob", at=0.0)

    def root(env):
        yield env.timeout(5.0)
        txn = tm.begin("ann")
        return (yield from tm.read(txn, "doc"))

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "v0"
    assert [(access.kind, access.actor, access.at)
            for access in sanitizer.accesses] \
        == [("write", "bob", 0.0), ("read", "ann", 5.0)]


def test_identical_runs_in_one_process_journal_the_same_locks():
    """A transaction's id is its lock owner, which the flight recorder
    journals: numbered per manager, a second identical run in the same
    process journals the same lock transitions as the first."""
    def run():
        recorder = FlightRecorder()
        with use_flight(recorder):
            env = Environment()
            tm = TransactionManager(env, SharedStore())

            def writer(env, name):
                txn = tm.begin(name)
                yield from tm.write(txn, "doc", name)
                yield env.timeout(1.0)
                yield from tm.commit(txn)

            env.process(writer(env, "alice"))
            env.process(writer(env, "bob"))
            env.run()
        recorder.finish()
        return recorder.epoch_digests

    first = run()
    assert first and run() == first
