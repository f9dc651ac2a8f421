"""Tests for resources, stores and containers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, PriorityResource, Resource, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    grants = []

    def user(env, tag, hold):
        request = resource.request()
        yield request
        grants.append((tag, env.now))
        yield env.timeout(hold)
        resource.release(request)

    env.process(user(env, "a", 5.0))
    env.process(user(env, "b", 5.0))
    env.process(user(env, "c", 1.0))
    env.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_queue():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(env, tag):
        with resource.request() as request:
            yield request
            order.append(tag)
            yield env.timeout(1.0)

    for tag in ("first", "second", "third"):
        env.process(user(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_context_manager_releases():
    env = Environment()
    resource = Resource(env, capacity=1)

    def user(env):
        with resource.request() as request:
            yield request
            yield env.timeout(1.0)

    env.process(user(env))
    env.run()
    assert resource.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_withdraw_queued_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    holder = resource.request()
    queued = resource.request()
    assert queued in resource.queue
    resource.release(queued)
    assert queued not in resource.queue
    assert resource.count == 1


def test_priority_resource_orders_queue():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        with resource.request(priority=0) as request:
            yield request
            yield env.timeout(10.0)

    def contender(env, tag, priority, delay):
        yield env.timeout(delay)
        with resource.request(priority=priority) as request:
            yield request
            order.append(tag)
            yield env.timeout(1.0)

    env.process(holder(env))
    env.process(contender(env, "low", 5, 1.0))
    env.process(contender(env, "high", 1, 2.0))
    env.run()
    assert order == ["high", "low"]


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in ("x", "y", "z"):
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [item for _, item in received] == ["x", "y", "z"]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(4.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(4.0, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    progress = []

    def producer(env):
        yield store.put("a")
        progress.append(("a", env.now))
        yield store.put("b")
        progress.append(("b", env.now))

    def consumer(env):
        yield env.timeout(3.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert progress == [("a", 0.0), ("b", 3.0)]


def test_store_filter_get():
    env = Environment()
    store = Store(env)

    def root(env):
        yield store.put({"kind": "video", "n": 1})
        yield store.put({"kind": "audio", "n": 2})
        item = yield store.get(filter=lambda m: m["kind"] == "audio")
        return item["n"]

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 2


def test_store_get_removes_the_item_it_hands_out():
    """Equal items are still distinct items: a get takes the one it
    found, not the first that compares equal to it."""
    env = Environment()
    store = Store(env)
    a, b, c = [1], [1], [1]
    for item in (a, b, c):
        store.put(item)
    filtered = store.get(lambda item: item is b)
    unfiltered = store.get()
    env.run()
    assert filtered.value is b and unfiltered.value is a
    assert len(store.items) == 1 and store.items[0] is c


def test_store_filter_get_among_equal_values_keeps_fifo():
    env = Environment()
    store = Store(env)
    for item in (1.0, 1, 2, True):          # 1.0 == 1 == True
        store.put(item)
    got = store.get(lambda item: type(item) is int)
    env.run()
    assert type(got.value) is int and got.value == 1
    assert [(type(item), item) for item in store.items] \
        == [(float, 1.0), (int, 2), (bool, True)]


def test_store_get_cancel():
    env = Environment()
    store = Store(env)
    getter = store.get()
    getter.cancel()
    store.put("item")
    env.run()
    assert store.items == ["item"]


def test_container_levels():
    env = Environment()
    container = Container(env, capacity=10, init=5)
    assert container.level == 5

    def root(env):
        yield container.get(3)
        assert container.level == 2
        yield container.put(8)
        assert container.level == 10

    proc = env.process(root(env))
    env.run(proc)


def test_container_get_blocks_until_available():
    env = Environment()
    container = Container(env, capacity=10, init=0)
    times = []

    def taker(env):
        yield container.get(4)
        times.append(env.now)

    def giver(env):
        yield env.timeout(2.0)
        yield container.put(4)

    env.process(taker(env))
    env.process(giver(env))
    env.run()
    assert times == [2.0]


def test_container_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=0)
    with pytest.raises(SimulationError):
        Container(env, capacity=5, init=9)
    container = Container(env, capacity=5)
    with pytest.raises(SimulationError):
        container.put(0)
    with pytest.raises(SimulationError):
        container.get(-1)
