"""Tests for the two queueing primitives: a link's channel and the store.

The channel's priority order behind a packet on the wire is tested in
``tests/net/test_priority.py``.
"""

from repro.net.link import Channel
from repro.sim import Environment, Store


class Claim:
    """A claim as a channel sees one: a priority, a transmission delay
    and, once booked, its start."""

    def __init__(self, priority=0, tx=1.0):
        self.priority = priority
        self.tx = tx
        self.start = None


def test_resource_fifo_queue():
    env = Environment()
    channel = Channel()
    order = []

    def user(env, tag):
        claim = Claim()
        channel.book(claim, env.now)
        yield env.timeout(claim.start + claim.tx - env.now)
        order.append((tag, claim.start, env.now))
        channel.booked.remove(claim)

    for tag in ("first", "second", "third"):
        env.process(user(env, tag))
    env.run()
    assert order == [("first", 0.0, 1.0), ("second", 1.0, 2.0),
                     ("third", 2.0, 3.0)]
    assert channel.busy_until == env.now and not channel.booked


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in ("x", "y", "z"):
            store.put(item)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == [(0.0, "x"), (1.0, "y"), (2.0, "z")]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(4.0)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(4.0, "late")]


def test_store_get_removes_the_item_it_hands_out():
    """Equal items are still distinct items: each get takes the oldest
    one, by identity, and leaves the rest in order."""
    env = Environment()
    store = Store(env)
    a, b, c = [1], [1], [1]
    for item in (a, b, c):
        store.put(item)
    first = store.get()
    second = store.get()
    env.run()
    assert first.value is a and second.value is b
    assert len(store.items) == 1 and store.items[0] is c


def test_store_get_cancel():
    env = Environment()
    store = Store(env)
    getter = store.get()
    getter.cancel()
    store.put("item")
    env.run()
    assert store.items == ["item"]
