"""Tests for the simulation environment and run loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, drive


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_timeout_fires_at_expected_time():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(2.5)
        fired.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired == [2.5]


def test_timeout_value_delivered():
    env = Environment()

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        return value

    p = env.process(proc(env))
    env.run(p)
    assert p.value == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    assert env.run(p) == 99


def test_process_chaining():
    env = Environment()

    def inner(env):
        yield env.timeout(2.0)
        return "inner-done"

    def outer(env):
        result = yield env.process(inner(env))
        return result + "!"

    p = env.process(outer(env))
    env.run(p)
    assert p.value == "inner-done!"
    assert env.now == 2.0


def test_run_without_until_drains_queue():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    env.run()
    assert env.now == 7.0


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(5.0)
    assert env.peek() == 5.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_process_exception_propagates_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(proc(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_drive_returns_root_process_value():
    def root(env):
        yield env.timeout(4.0)
        return "done"

    assert drive(root) == "done"


def test_drive_with_until_returns_none_when_cut_short():
    def root(env):
        yield env.timeout(100.0)
        return "never"

    assert drive(root, until=1.0) is None


def test_run_until_already_processed_event():
    env = Environment()

    def root(env):
        yield env.timeout(1.0)
        return "v"

    proc = env.process(root(env))
    env.run()
    # Running again "until" the already-finished process returns its value.
    assert env.run(proc) == "v"
