"""Tests for the channel (PriorityResource) and the store."""

from repro.sim import Environment, PriorityResource, Store


def test_resource_fifo_queue():
    env = Environment()
    resource = PriorityResource(env)
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
    resource = PriorityResource(env)

    def user(env):
        with resource.request() as request:
            yield request
            yield env.timeout(1.0)

    env.process(user(env))
    env.run()
    assert resource.count == 0


def test_withdraw_queued_request():
    env = Environment()
    resource = PriorityResource(env)
    holder = resource.request()
    queued = resource.request()
    assert queued in resource.queue
    resource.release(queued)
    assert queued not in resource.queue
    assert resource.count == 1
    assert resource.users == [holder]


def test_withdrawing_a_waiter_keeps_the_rest_in_priority_order():
    """The wait queue is a heap: taking a claim out of it must leave the
    others to be granted in priority order (the heap [0, 13, 6] less
    its head is [13, 6], which is no heap)."""
    env = Environment()
    resource = PriorityResource(env)
    holder = resource.request()
    waiters = {priority: resource.request(priority=priority)
               for priority in (6, 13, 0)}
    resource.release(waiters[0])
    granted = []
    current = holder
    while True:
        resource.release(current)
        if not resource.users:
            break
        current = resource.users[0]
        granted.append(current.priority)
    assert granted == [6, 13]


def test_priority_resource_orders_queue():
    env = Environment()
    resource = PriorityResource(env)
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


def test_priority_order_is_respected():
    env = Environment()
    resource = PriorityResource(env)
    order = []

    def worker(env, label, priority):
        claim = resource.request(priority=priority)
        yield claim
        order.append(label)
        yield env.timeout(1.0)
        resource.release(claim)

    env.process(worker(env, "first", 5))

    def late(env):
        yield env.timeout(0.1)
        env.process(worker(env, "urgent", 0))
        env.process(worker(env, "relaxed", 9))

    env.process(late(env))
    env.run()
    assert order == ["first", "urgent", "relaxed"]


def test_priority_tickets_are_per_instance():
    env = Environment()
    first = PriorityResource(env)
    second = PriorityResource(env)
    # Exhausting tickets on one resource must not advance the other's
    # sequence: the tie-break counter is instance state, not module
    # state, so experiments sharing a process stay independent.
    for _ in range(5):
        next(first._ticket)
    assert next(second._ticket) == 1


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
