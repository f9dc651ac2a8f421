"""The environment's window-boundary hook (timeline substrate)."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT


def ticker(env, period, count, log=None):
    for _ in range(count):
        yield env.timeout(period)
        if log is not None:
            log.append(env.now)


def test_hook_fires_at_each_boundary():
    env = Environment()
    boundaries = []
    env.set_window_hook(1.0, boundaries.append)
    env.process(ticker(env, 0.3, 12))
    env.run()
    assert boundaries == [1.0, 2.0, 3.0]


def test_hook_catches_up_over_quiet_gaps():
    """One event far in the future fires every boundary it crossed."""
    env = Environment()
    boundaries = []
    env.set_window_hook(1.0, boundaries.append)

    def proc(env):
        yield env.timeout(4.5)

    env.process(proc(env))
    env.run()
    assert boundaries == [1.0, 2.0, 3.0, 4.0]


def test_hook_sees_only_events_strictly_before_boundary():
    """The cut at boundary B observes effects of events with t < B."""
    env = Environment()
    seen = []
    log = []
    env.set_window_hook(1.0, lambda b: seen.append((b, list(log))))
    # Events at exactly t=1.0 must NOT be visible to the 1.0 flush.
    env.process(ticker(env, 0.5, 3, log))
    env.run()
    assert seen[0] == (1.0, [0.5])


def test_hook_schedules_no_events():
    """Replay-digest neutrality: hook runs leave the event count alone."""
    def drive(with_hook):
        env = Environment()
        if with_hook:
            env.set_window_hook(0.25, lambda b: None)
        env.process(ticker(env, 0.4, 10))
        env.run()
        return env.stats()

    assert drive(with_hook=True) == drive(with_hook=False)


def test_boundaries_do_not_drift():
    """Multiplicative boundaries: no accumulating float error."""
    env = Environment()
    boundaries = []
    env.set_window_hook(0.1, boundaries.append)
    env.process(ticker(env, 0.07, 100))
    env.run()
    # Exactly anchor + i*interval — never an accumulated sum.
    assert boundaries == [0.1 * (i + 1) for i in range(len(boundaries))]
    assert len(boundaries) >= 69  # ~7.0s of activity at 0.1s windows


def test_hook_works_with_step():
    env = Environment()
    boundaries = []
    env.set_window_hook(1.0, boundaries.append)
    env.process(ticker(env, 0.6, 4))
    while env.peek() != float("inf"):
        env.step()
    assert boundaries == [1.0, 2.0]


def test_custom_start_anchor():
    env = Environment()
    boundaries = []
    env.set_window_hook(1.0, boundaries.append, start=0.5)
    env.process(ticker(env, 0.5, 6))
    env.run()
    assert boundaries == [1.5, 2.5]


def test_second_hook_rejected_until_cleared():
    env = Environment()
    env.set_window_hook(1.0, lambda b: None)
    with pytest.raises(SimulationError):
        env.set_window_hook(2.0, lambda b: None)
    env.clear_window_hook()
    env.set_window_hook(2.0, lambda b: None)


def test_nonpositive_interval_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.set_window_hook(0.0, lambda b: None)
    with pytest.raises(SimulationError):
        env.set_window_hook(-1.0, lambda b: None)


# -- exactly-once from the drain loop -------------------------------------
#
# The run loop fires the hook from its inlined drain; each boundary
# must still fire exactly once, in order, whatever the schedule's shape.

def _boundaries(build, interval=1.0, until=None):
    env = Environment()
    fired = []
    env.set_window_hook(interval, fired.append)
    build(env)
    env.run(until=until)
    return fired


def _assert_exactly_once(fired):
    assert fired == sorted(fired)
    assert len(fired) == len(set(fired)), "a boundary fired twice"


def test_exactly_once_over_quiet_gaps():
    """Sparse schedules with long quiet gaps: every crossed boundary
    fires once when the clock jumps, none are skipped or repeated."""
    def build(env):
        def proc(env):
            yield env.timeout(0.3)
            yield env.timeout(4.0)   # crosses 1.0 .. 4.0
            yield env.timeout(0.1)
            yield env.timeout(10.0)  # crosses 5.0 .. 14.0
        env.process(proc(env))

    fired = _boundaries(build)
    _assert_exactly_once(fired)
    assert fired == [float(k) for k in range(1, 15)]


@pytest.mark.parametrize("interval, crossed", [(1.0, [1.0, 2.0]), (None, [])],
                         ids=["hook", "no-hook"])
def test_an_event_at_infinity_crosses_no_boundary(interval, crossed):
    """With a hook there is no last boundary before infinity to stop
    at, and without one ``inf >= inf`` reached for a hook that is not
    there; either way the event runs and no boundary fires for it."""
    env = Environment()
    fired = []
    if interval is not None:
        env.set_window_hook(interval, fired.append)
    env.timeout(2.5)
    never = env.timeout(float("inf"))
    env.run()
    assert never.processed and env.now == float("inf")
    assert fired == crossed


def test_exactly_once_through_dense_same_time_bursts():
    """Thousands of events at the boundary instant: the hook fires once
    before the first of them, never between or after."""
    env = Environment()
    fired = []
    order = []
    env.set_window_hook(1.0, lambda b: (fired.append(b),
                                        order.append(("hook", b))))

    def burst(env):
        yield env.timeout(1.0)
        order.append(("event", env.now))

    for _ in range(3000):
        env.process(burst(env))
    env.run()
    _assert_exactly_once(fired)
    assert fired == [1.0]
    # The single firing precedes every same-instant event callback.
    assert order[0] == ("hook", 1.0)
    assert all(kind == "event" for kind, _ in order[1:])


def test_exactly_once_in_until_terminated_runs():
    """run(until=...) must not fire boundaries beyond the cut, and a
    resumed run picks up with no boundary lost or repeated."""
    env = Environment()
    fired = []
    env.set_window_hook(1.0, fired.append)
    env.process(ticker(env, 0.3, 30))
    env.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    env.run(until=7.5)
    _assert_exactly_once(fired)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_exactly_once_on_random_schedules_matches_model(seed):
    """Property: for arbitrary priority/delay mixes the boundary log is
    every multiple of the interval up to the last event, once each."""
    rng = random.Random(seed)
    plan = [(rng.choice([0.0, rng.random(), rng.random() * 20.0]),
             rng.choice([URGENT, NORMAL]))
            for _ in range(400)]

    env = Environment()
    fired = []
    env.set_window_hook(0.5, fired.append)
    for delay, priority in plan:
        event = env.event()
        event._ok = True
        env.schedule(event, priority=priority, delay=delay)
    env.run()
    last = max(delay for delay, _priority in plan)
    assert fired == [0.5 * k for k in range(1, int(last / 0.5) + 1)]
