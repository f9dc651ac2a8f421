"""Edge cases in the simulation kernel found worth pinning down."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    AllOf,
    AnyOf,
    Container,
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    Store,
)


@pytest.fixture
def env():
    return Environment()


def test_condition_with_failed_child_fails(env):
    bad = env.event()
    good = env.timeout(1.0)
    caught = []

    def waiter(env):
        try:
            yield env.all_of([good, bad])
        except RuntimeError as error:
            caught.append(str(error))

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(0.5)
        bad.fail(RuntimeError("child died"))

    env.process(failer(env))
    env.run()
    assert caught == ["child died"]


def test_condition_mixed_environments_rejected(env):
    other = Environment()
    with pytest.raises(SimulationError):
        env.all_of([env.timeout(1), other.timeout(1)])


def test_anyof_with_already_processed_child(env):
    t = env.timeout(0.5, value="early")

    def root(env):
        yield env.timeout(1.0)  # t fires and is processed meanwhile
        result = yield env.any_of([t, env.timeout(5.0)])
        return list(result.values())

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == ["early"]


def test_interrupt_process_waiting_on_resource(env):
    resource = Resource(env, capacity=1)
    outcomes = []

    def holder(env):
        req = resource.request()
        yield req
        yield env.timeout(10.0)
        resource.release(req)

    def impatient(env):
        request = resource.request()
        try:
            yield request
            outcomes.append("granted")
        except Interrupt:
            outcomes.append("interrupted")
            resource.release(request)  # withdraw from the queue

    env.process(holder(env))
    waiting = env.process(impatient(env))

    def poker(env):
        yield env.timeout(1.0)
        waiting.interrupt()

    env.process(poker(env))
    env.run()
    assert outcomes == ["interrupted"]
    assert resource.queue == []


def test_interrupted_waiter_does_not_receive_grant_later(env):
    resource = Resource(env, capacity=1)
    grants = []

    def holder(env):
        req = resource.request()
        yield req
        yield env.timeout(2.0)
        resource.release(req)

    def first_waiter(env):
        request = resource.request()
        try:
            yield request
            grants.append("first")
        except Interrupt:
            resource.release(request)

    def second_waiter(env):
        yield env.timeout(0.5)
        yield resource.request()
        grants.append("second")

    env.process(holder(env))
    w1 = env.process(first_waiter(env))
    env.process(second_waiter(env))

    def poker(env):
        yield env.timeout(1.0)
        w1.interrupt()

    env.process(poker(env))
    env.run()
    assert grants == ["second"]


def test_priority_resource_release_from_queue(env):
    resource = PriorityResource(env, capacity=1)
    holder = resource.request(priority=0)
    queued = resource.request(priority=5)
    assert not queued.triggered
    resource.release(queued)       # withdraw while queued
    resource.release(holder.value)
    assert resource.count == 0


def test_store_competing_filter_getters(env):
    store = Store(env)
    results = {}

    def taker(env, name, want):
        item = yield store.get(filter=lambda x: x == want)
        results[name] = item

    env.process(taker(env, "a", "apple"))
    env.process(taker(env, "b", "banana"))

    def producer(env):
        yield store.put("banana")
        yield env.timeout(0.1)
        yield store.put("apple")

    env.process(producer(env))
    env.run()
    assert results == {"a": "apple", "b": "banana"}


def test_store_put_wakes_blocked_getter_in_fifo(env):
    store = Store(env)
    order = []

    def taker(env, name):
        yield store.get()
        order.append(name)

    for name in ("x", "y", "z"):
        env.process(taker(env, name))

    def producer(env):
        for _ in range(3):
            yield env.timeout(0.1)
            yield store.put("item")

    env.process(producer(env))
    env.run()
    assert order == ["x", "y", "z"]


def test_container_interleaved_puts_and_gets(env):
    container = Container(env, capacity=5, init=0)
    log = []

    def producer(env):
        for i in range(4):
            yield container.put(2)
            log.append(("put", env.now, container.level))
            yield env.timeout(0.1)

    def consumer(env):
        for i in range(4):
            yield container.get(2)
            log.append(("get", env.now, container.level))
            yield env.timeout(0.15)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert container.level == 0
    assert len(log) == 8
    assert all(0 <= level <= 5 for _, _, level in log)


def test_event_defuse_prevents_crash(env):
    event = env.event()
    event.fail(RuntimeError("nobody listening"))
    event.defuse()
    env.run()  # must not raise


def test_process_value_is_return(env):
    def worker(env):
        yield env.timeout(1.0)
        return {"answer": 42}

    proc = env.process(worker(env))
    env.run()
    assert proc.value == {"answer": 42}
    assert proc.ok


def test_nested_process_failure_propagates(env):
    def inner(env):
        yield env.timeout(0.5)
        raise ValueError("inner broke")

    def outer(env):
        try:
            yield env.process(inner(env))
        except ValueError as error:
            return "caught: {}".format(error)

    proc = env.process(outer(env))
    env.run(proc)
    assert proc.value == "caught: inner broke"


# -- the kernel boundary: times that are not times ---------------------------


@pytest.mark.parametrize("delay", [float("inf"), 1e309],
                         ids=["inf", "1e309"])
def test_infinite_timeout_queues_behind_every_finite_time(env, delay):
    """An infinite delay sorts last (as schedule(delay=inf) always
    did), whether it is queued before or after the finite ones."""
    never = env.timeout(delay)
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.peek() == 1.0
    later = env.timeout(delay)
    env.run(until=3.0)
    assert env.now == 3.0
    assert not never.processed and not later.processed
    assert env.stats()["queue_depth"] == 2
    assert env.peek() == float("inf")


def test_nan_timeout_is_rejected(env):
    with pytest.raises(SimulationError, match="delay.*nan"):
        env.timeout(float("nan"))
    assert env.events_scheduled == 0


@pytest.mark.parametrize("delay", [float("nan"), -1.0])
def test_schedule_rejects_nan_and_negative_delay(env, delay):
    with pytest.raises(SimulationError, match="delay"):
        env.schedule(env.event(), delay=delay)
    assert env.events_scheduled == 0
    assert env.stats()["queue_depth"] == 0


def test_run_until_nan_is_rejected(env):
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="until.*nan"):
        env.run(until=float("nan"))
    assert env.now == 0.0
    assert env.events_scheduled == 1
