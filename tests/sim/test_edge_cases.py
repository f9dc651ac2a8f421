"""Edge cases in the simulation kernel found worth pinning down."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    AnyOf,
    Environment,
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
            yield env.any_of([good, bad])
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
        env.any_of([env.timeout(1), other.timeout(1)])


def test_anyof_with_already_processed_child(env):
    t = env.timeout(0.5, value="early")

    def root(env):
        yield env.timeout(1.0)  # t fires and is processed meanwhile
        result = yield env.any_of([t, env.timeout(5.0)])
        return list(result.values())

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == ["early"]


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
            store.put("item")

    env.process(producer(env))
    env.run()
    assert order == ["x", "y", "z"]


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
