"""Tests for event primitives: triggering, conditions, processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_event_lifecycle():
    env = Environment()
    event = env.event()
    assert not event.triggered
    assert not event.processed
    event.succeed("v")
    assert event.triggered
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == "v"


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env):
        try:
            yield event
        except RuntimeError as error:
            caught.append(str(error))

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(1.0)
        event.fail(RuntimeError("bad"))

    env.process(failer(env))
    env.run()
    assert caught == ["bad"]


def test_unhandled_failed_event_escalates():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("unseen"))
    with pytest.raises(RuntimeError, match="unseen"):
        env.run()


def test_any_of_fires_on_first_event():
    env = Environment()

    def root(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (1.0, ["fast"])


def test_process_is_alive_and_name():
    env = Environment()

    def named_proc(env):
        yield env.timeout(1.0)

    proc = env.process(named_proc(env))
    assert proc.is_alive
    assert proc.name == "named_proc"
    env.run()
    assert not proc.is_alive


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(42)


def test_yield_already_processed_event_continues_immediately():
    env = Environment()

    def root(env):
        t = env.timeout(1.0, value="x")
        yield env.timeout(5.0)  # t fires and is processed meanwhile
        value = yield t
        return (env.now, value)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == (5.0, "x")
