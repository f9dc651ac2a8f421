"""Tests for the shared store and the four lock styles."""

import pytest

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.concurrency import (
    EXCLUSIVE,
    HARD,
    LockTable,
    NOTIFICATION,
    SHARED,
    SOFT,
    SharedStore,
    TICKLE,
    TransactionManager,
)
from repro.errors import ConcurrencyError, LockError
from repro.sim import Environment

from tests.counting import CountingEnvironment


@pytest.fixture
def env():
    return Environment()


# -- SharedStore ------------------------------------------------------------

def test_store_create_and_read():
    store = SharedStore()
    store.create("doc", "hello")
    assert store.read("doc") == "hello"
    assert "doc" in store
    assert store.keys() == ["doc"]


def test_store_create_duplicate_rejected():
    store = SharedStore()
    store.create("doc")
    with pytest.raises(ConcurrencyError):
        store.create("doc")


def test_store_missing_item_raises():
    store = SharedStore()
    with pytest.raises(ConcurrencyError):
        store.item("ghost")


def test_a_failed_read_is_not_a_read():
    # The item is looked up first: a read that raises is neither counted
    # nor reported to the sanitizer as an access.
    with use_sanitizer(ConflictSanitizer()) as sanitizer:
        store = SharedStore("d", env=Environment())
    with pytest.raises(ConcurrencyError, match="no item named missing"):
        store.read("missing", reader="ann", at=1.0)
    assert store.reads == 0
    assert sanitizer.accesses == []
    store.create("missing")
    store.read("missing", reader="ann", at=2.0)
    assert (store.reads, len(sanitizer.accesses)) == (1, 1)


def test_store_ensure_idempotent():
    store = SharedStore()
    a = store.ensure("x", 1)
    b = store.ensure("x", 2)
    assert a is b
    assert store.read("x") == 1


def test_store_write_bumps_version():
    store = SharedStore()
    v1 = store.write("doc", "a", writer="alice", at=1.0)
    v2 = store.write("doc", "b", writer="bob", at=2.0)
    assert (v1, v2) == (1, 2)
    item = store.item("doc")
    assert item.last_writer == "bob"
    assert item.last_write_at == 2.0


def test_store_subscription():
    store = SharedStore()
    seen = []
    store.subscribe(lambda key, value, version, writer:
                    seen.append((key, value, version, writer)))
    store.write("doc", "x", writer="alice")
    assert seen == [("doc", "x", 1, "alice")]


def test_store_snapshot():
    store = SharedStore()
    store.write("a", 1)
    store.write("b", 2)
    assert store.snapshot() == {"a": (1, 1), "b": (2, 1)}


# -- hard locks ---------------------------------------------------------------

def test_hard_exclusive_blocks(env):
    table = LockTable(env, style=HARD)
    order = []

    def user(env, name, hold):
        grant = yield table.acquire("doc", name)
        order.append((name, env.now))
        yield env.timeout(hold)
        grant.release()

    env.process(user(env, "alice", 2.0))
    env.process(user(env, "bob", 1.0))
    env.run()
    assert order == [("alice", 0.0), ("bob", 2.0)]
    assert table.counters["waits"] == 1


def test_hard_shared_locks_coexist(env):
    table = LockTable(env, style=HARD)
    granted = []

    def reader(env, name):
        yield table.acquire("doc", name, SHARED)
        granted.append((name, env.now))

    env.process(reader(env, "alice"))
    env.process(reader(env, "bob"))
    env.run()
    assert granted == [("alice", 0.0), ("bob", 0.0)]


def test_hard_shared_blocks_writer(env):
    table = LockTable(env, style=HARD)
    events = []

    def reader(env):
        grant = yield table.acquire("doc", "reader", SHARED)
        events.append(("read", env.now))
        yield env.timeout(3.0)
        grant.release()

    def writer(env):
        yield env.timeout(0.5)
        yield table.acquire("doc", "writer", EXCLUSIVE)
        events.append(("write", env.now))

    env.process(reader(env))
    env.process(writer(env))
    env.run()
    assert events == [("read", 0.0), ("write", 3.0)]


def test_release_unheld_grant_raises(env):
    table = LockTable(env, style=HARD)

    def root(env):
        grant = yield table.acquire("doc", "alice")
        grant.release()
        with pytest.raises(LockError):
            grant.release()

    proc = env.process(root(env))
    env.run(proc)


def test_invalid_mode_and_style(env):
    with pytest.raises(LockError):
        LockTable(env, style="optimistic")
    with pytest.raises(LockError):
        LockTable(env, tickle_grace=-1, style=TICKLE)
    table = LockTable(env)
    with pytest.raises(LockError):
        table.acquire("doc", "alice", mode="update")


def test_same_owner_reentrant_exclusive(env):
    table = LockTable(env, style=HARD)

    def root(env):
        yield table.acquire("doc", "alice", EXCLUSIVE)
        second = table.acquire("doc", "alice", EXCLUSIVE)
        assert second.triggered  # same owner is compatible with itself
        yield second

    proc = env.process(root(env))
    env.run(proc)


def test_cancel_wait(env):
    table = LockTable(env, style=HARD)

    def root(env):
        yield table.acquire("doc", "alice")
        pending = table.acquire("doc", "bob")
        assert not pending.triggered
        assert table.cancel_wait("doc", pending)
        assert table.queue_length("doc") == 0
        assert not table.cancel_wait("doc", pending)

    proc = env.process(root(env))
    env.run(proc)


# -- tickle locks ----------------------------------------------------------------

def test_tickle_takeover_when_holder_idle(env):
    table = LockTable(env, style=TICKLE, tickle_grace=1.0)
    takeovers = []
    table.on_takeover = lambda grant, taker: takeovers.append(
        (grant.owner, taker))

    def idle_holder(env):
        yield table.acquire("doc", "alice")
        # Alice goes idle; never touches the grant again.

    def impatient(env):
        yield env.timeout(2.0)  # past the grace period
        grant = yield table.acquire("doc", "bob")
        return (env.now, grant.owner)

    env.process(idle_holder(env))
    proc = env.process(impatient(env))
    env.run(proc)
    assert proc.value == (2.0, "bob")
    assert takeovers == [("alice", "bob")]
    assert table.counters["takeovers"] == 1


def test_tickle_active_holder_keeps_lock(env):
    table = LockTable(env, style=TICKLE, tickle_grace=1.0)

    def active_holder(env):
        grant = yield table.acquire("doc", "alice")
        for _ in range(5):
            yield env.timeout(0.5)
            grant.touch()
        grant.release()

    def impatient(env):
        yield env.timeout(2.0)
        yield table.acquire("doc", "bob")
        return env.now

    env.process(active_holder(env))
    proc = env.process(impatient(env))
    env.run(proc)
    assert proc.value == 2.5  # waited for the release, no takeover
    assert table.counters["takeovers"] == 0


def test_tickled_holder_grant_marked_revoked(env):
    table = LockTable(env, style=TICKLE, tickle_grace=0.5)
    grants = {}

    def holder(env):
        grants["alice"] = yield table.acquire("doc", "alice")

    def taker(env):
        yield env.timeout(1.0)
        yield table.acquire("doc", "bob")

    env.process(holder(env))
    env.process(taker(env))
    env.run()
    assert grants["alice"].revoked


# -- soft locks ---------------------------------------------------------------

def test_soft_locks_never_block(env):
    table = LockTable(env, style=SOFT)
    times = []

    def user(env, name):
        yield table.acquire("doc", name, EXCLUSIVE)
        times.append((name, env.now))

    env.process(user(env, "alice"))
    env.process(user(env, "bob"))
    env.run()
    assert times == [("alice", 0.0), ("bob", 0.0)]


def test_soft_lock_conflict_flagged(env):
    table = LockTable(env, style=SOFT)
    conflicts = []
    table.on_conflict = lambda grant, other: conflicts.append(
        (grant.owner, other))

    def root(env):
        a = yield table.acquire("doc", "alice", EXCLUSIVE)
        assert not a.conflicting
        b = yield table.acquire("doc", "bob", EXCLUSIVE)
        assert a.conflicting and b.conflicting
        b.release()
        assert not a.conflicting

    proc = env.process(root(env))
    env.run(proc)
    assert ("alice", "bob") in conflicts or ("bob", "alice") in conflicts
    assert table.counters["conflicts"] >= 1


def test_soft_readers_do_not_conflict(env):
    table = LockTable(env, style=SOFT)

    def root(env):
        a = yield table.acquire("doc", "alice", SHARED)
        b = yield table.acquire("doc", "bob", SHARED)
        assert not a.conflicting and not b.conflicting

    proc = env.process(root(env))
    env.run(proc)


# -- notification locks ----------------------------------------------------------

def test_notification_readers_always_admitted(env):
    table = LockTable(env, style=NOTIFICATION)

    def root(env):
        yield table.acquire("doc", "writer", EXCLUSIVE)
        reader = table.acquire("doc", "reader", SHARED)
        assert reader.triggered  # admitted despite the writer

    proc = env.process(root(env))
    env.run(proc)


def test_notification_writers_exclude_writers(env):
    table = LockTable(env, style=NOTIFICATION)
    order = []

    def writer(env, name, hold):
        grant = yield table.acquire("doc", name, EXCLUSIVE)
        order.append((name, env.now))
        yield env.timeout(hold)
        grant.release()

    env.process(writer(env, "w1", 2.0))
    env.process(writer(env, "w2", 1.0))
    env.run()
    assert order == [("w1", 0.0), ("w2", 2.0)]


def test_notification_watchers_notified_of_writes(env):
    table = LockTable(env, style=NOTIFICATION)
    seen = []
    table.watch("doc", lambda key, writer, kind: seen.append(
        (key, writer, kind)))

    def root(env):
        yield table.acquire("doc", "writer", EXCLUSIVE)
        yield table.acquire("doc", "reader", SHARED)
        notified = table.notify_write("doc", "writer")
        assert notified == 2  # the watcher and the shared reader

    proc = env.process(root(env))
    env.run(proc)
    assert seen == [("doc", "writer", "write")]
    assert table.counters["notifications"] == 2



# -- a request answered in the call --------------------------------------------

def _free(table):
    return table.acquire("doc", "bob")


def _past_a_writer(table):
    # Soft: over a conflicting writer; notification: a reader beside one.
    table.acquire("doc", "ann")
    return table.acquire("doc", "bob",
                         SHARED if table.style == NOTIFICATION else EXCLUSIVE)


def _takeover(table):
    # A grace of 0: every holder is idle long enough at once.
    table.acquire("doc", "ann")
    return table.acquire("doc", "bob")


def _upgrade(table):
    return table.upgrade(table.acquire("doc", "bob", SHARED).value)


@pytest.mark.parametrize("style, request_", [
    (HARD, _free), (TICKLE, _free), (SOFT, _free), (NOTIFICATION, _free),
    (SOFT, _past_a_writer), (NOTIFICATION, _past_a_writer),
    (TICKLE, _takeover), (HARD, _upgrade)],
    ids=["hard", "tickle", "soft", "notification", "soft-conflict",
         "notification-reader", "takeover", "upgrade"])
def test_an_immediate_answer_is_processed_and_queues_nothing(style,
                                                             request_):
    env = CountingEnvironment()
    table = LockTable(env, style=style, tickle_grace=0.0)
    event = request_(table)
    assert (event.processed, event.ok, env.pushes) == (True, True, 0)
    assert event.value.owner == "bob" and not event.value.revoked
    assert table.holders("doc")[-1] is event.value
    env.run()
    assert env.pushes == 0


def test_a_free_acquire_continues_before_what_is_queued_for_its_instant():
    env = CountingEnvironment()
    table = LockTable(env)
    order = []

    def requester(env):
        yield env.timeout(1.0)
        env.timeout(0.0).callbacks.append(lambda _: order.append("queued"))
        yield table.acquire("doc", "ann")
        order.append(("granted", env.now))

    env.process(requester(env))
    env.run()
    assert order == [("granted", 1.0), "queued"]


def test_a_contended_acquire_queues_one_event_at_its_grant():
    env = CountingEnvironment()
    table = LockTable(env)
    held = table.acquire("doc", "ann").value
    waiting = table.acquire("doc", "bob")
    assert (waiting.triggered, env.pushes) == (False, 0)
    held.release()
    assert (waiting.triggered, env.pushes) == (True, 1)
    env.run()
    assert waiting.value.owner == "bob" and env.pushes == 1


def _done(steps):
    """Drive a generator that must not wait; its return value."""
    with pytest.raises(StopIteration) as stop:
        next(steps)
    return stop.value.value


def test_a_transactions_free_locks_queue_nothing():
    env = CountingEnvironment()
    manager = TransactionManager(env, SharedStore())
    txn = manager.begin("ann")
    assert _done(manager.read(txn, "doc")) is None
    _done(manager.write(txn, "doc", 1))     # an in-place upgrade
    assert txn.grants["doc"].mode == EXCLUSIVE
    assert _done(manager.read(txn, "doc")) == 1
    assert env.pushes == 0


def test_any_of_a_free_acquire_and_a_timeout_fires_with_the_grant(env):
    table = LockTable(env)
    acquired = table.acquire("doc", "ann")
    either = env.any_of([acquired, env.timeout(5.0)])
    assert env.run(either) == {acquired: acquired.value}
    assert env.now == 0.0 and acquired.value.owner == "ann"


def test_a_takeover_fails_the_upgrade_its_holder_waits_for(env):
    table = LockTable(env, style=TICKLE, tickle_grace=1.0)
    refused = []

    def ann(env):
        grant = yield table.acquire("doc", "ann", SHARED)
        yield env.timeout(1.0)
        try:
            yield table.upgrade(grant)      # bob holds it too: ann waits
        except LockError as error:
            refused.append((str(error), env.now))

    def bob(env):
        yield table.acquire("doc", "bob", SHARED)

    def cat(env):
        yield env.timeout(5.0)
        grant = yield table.acquire("doc", "cat")
        yield env.timeout(1.0)
        grant.release()

    processes = [env.process(user(env)) for user in (ann, bob, cat)]
    env.run()
    assert refused == [("ann's shared lock on doc was taken over by cat "
                        "while it waited to upgrade", 5.0)]
    assert not any(process.is_alive for process in processes)
    assert table.queue_length("doc") == 0 and table.holders("doc") == []


def test_a_release_fails_the_upgrade_its_grant_waits_for(env):
    """An upgrade whose shared grant other code releases while it waits
    fails with a ``LockError`` that names the release, at the release;
    it used to be dropped, its process left waiting forever."""
    table = LockTable(env, style=HARD)
    refused, grants = [], {}

    def ann(env):
        grants["ann"] = yield table.acquire("doc", "ann", SHARED)
        yield env.timeout(1.0)
        try:
            yield table.upgrade(grants["ann"])   # bob shares it: ann waits
        except LockError as error:
            refused.append((str(error), env.now))

    def bob(env):
        grant = yield table.acquire("doc", "bob", SHARED)
        yield env.timeout(3.0)
        grant.release()

    def supervisor(env):
        yield env.timeout(2.0)
        grants["ann"].release()

    processes = [env.process(user(env)) for user in (ann, bob, supervisor)]
    env.run(until=10.0)
    assert refused == [("ann's shared lock on doc was released while it "
                        "waited to upgrade", 2.0)]
    assert not any(process.is_alive for process in processes)
    assert table.queue_length("doc") == 0 and table.holders("doc") == []
