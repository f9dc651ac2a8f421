"""The event queue must dispatch in ``(time, priority, eid)`` order.

These tests pin the queue's contract down against a model stated
directly in the test — ``sorted`` over ``(now + delay, priority,
schedule index)`` — on adversarial schedules, for programs that keep
scheduling while they drain, and check the kernel's counters against
pushes and pops counted from outside.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event
from repro.sim.environment import dispatch_parts
from repro.sim.events import NORMAL, URGENT
from tests.counting import CountingEnvironment


def _schedule_tagged(env, entries):
    """Queue one valued event per (delay, priority, tag) entry."""
    fired = []
    for delay, priority, tag in entries:
        event = Event(env)
        event._ok = True
        event.callbacks.append(
            lambda _e, tag=tag: fired.append((env.now, tag)))
        env.schedule(event, priority=priority, delay=delay)
    return fired


def _model(entries, now=0.0):
    """The dispatch contract: (time, priority, schedule index) order."""
    keyed = sorted((now + delay, priority, index, tag)
                   for index, (delay, priority, tag) in enumerate(entries))
    return [(time, tag) for time, _priority, _index, tag in keyed]


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_dispatch_order_matches_model_on_random_schedules(seed):
    rng = random.Random(seed)
    entries = []
    for tag in range(500):
        delay = rng.choice([0.0, rng.random() * 1e-4,
                            rng.random(), rng.random() * 100.0])
        priority = rng.choice([URGENT, NORMAL, NORMAL, NORMAL])
        entries.append((delay, priority, tag))

    env = Environment()
    fired = _schedule_tagged(env, entries)
    env.run()
    assert env.events_processed == len(entries)
    assert fired == _model(entries)


def test_same_instant_fifo_with_urgent_first():
    """At one instant: URGENT beats NORMAL, then strict schedule order."""
    env = Environment()
    fired = _schedule_tagged(
        env, [(0.5, NORMAL, "n0"), (0.5, URGENT, "u0"),
              (0.5, NORMAL, "n1"), (0.5, URGENT, "u1"),
              (0.5, NORMAL, "n2")])
    env.run()
    assert [tag for _, tag in fired] == ["u0", "u1", "n0", "n1", "n2"]


@pytest.mark.parametrize("seed", [1, 13])
def test_zipf_skewed_delays_dispatch_in_order(seed):
    """Heavy-tailed delays spread the queue over nine decades."""
    rng = random.Random(seed)
    entries = []
    for tag in range(2000):
        # Zipf-ish: most events near now, a long tail far out.
        delay = 0.001 / (1.0 - rng.random()) ** 1.5
        entries.append((min(delay, 1e6), NORMAL, tag))

    env = Environment()
    fired = _schedule_tagged(env, entries)
    env.run()
    assert fired == _model(entries)


def test_dense_same_time_burst_is_served_in_order():
    """Every event at one instant: schedule order alone decides."""
    env = Environment()
    fired = _schedule_tagged(
        env, [(1.0, NORMAL, tag) for tag in range(5000)])
    env.run()
    with pytest.raises(Exception):
        env.step()  # queue is dry
    assert [tag for _, tag in fired] == list(range(5000))


def test_interleaved_push_during_drain_is_served_in_order():
    """Callbacks that schedule just ahead of the clock must have their
    events served this pass, in order, not postponed."""
    env = Environment()
    seen = []

    def chain(env, depth):
        seen.append(env.now)
        if depth:
            yield env.timeout(0.0001)
            yield from chain(env, depth - 1)

    env.process(chain(env, 50))
    env.run()
    assert len(seen) == 51
    assert seen == sorted(seen)


def test_peek_and_step_agree():
    entries = [(d, NORMAL, i)
               for i, d in enumerate([3.0, 1.0, 2.0, 1.0, 0.0])]
    env = Environment()
    fired = _schedule_tagged(env, entries)
    peeked = []
    while env.peek() != float("inf"):
        peeked.append(env.peek())
        env.step()
    assert peeked == [0.0, 1.0, 1.0, 2.0, 3.0]
    assert fired == _model(entries)


def test_fresh_and_drained_queue_accept_pushes():
    """A fresh environment and a fully drained one behave alike."""
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0
    # Drained: the next push starts from the current clock.
    env.timeout(0.5)
    env.run()
    assert env.now == 5.5
    assert env.stats()["queue_depth"] == 0


def test_queue_depth_counts_every_pending_event():
    env = Environment()
    for delay in (0.1, 1.0, 10.0, 1000.0):
        env.timeout(delay)
    assert env.stats()["queue_depth"] == 4
    env.step()
    assert env.stats()["queue_depth"] == 3


def test_dispatch_parts_roundtrip():
    from repro.sim.environment import _PRIORITY_SHIFT
    assert dispatch_parts((URGENT << _PRIORITY_SHIFT) | 7) == (URGENT, 7)
    assert dispatch_parts((NORMAL << _PRIORITY_SHIFT) | 42) == (NORMAL, 42)


def test_counters_after_a_cut_short_run():
    env = Environment()

    def worker(env):
        for _ in range(20):
            yield env.timeout(0.01)

    for _ in range(5):
        env.process(worker(env))
    env.run(until=0.15)
    # 5 Initialize + the until event + 15 timeouts per worker queued,
    # of which each worker's last is still pending at the cut.
    assert env.stats() == {"now": 0.15, "events_scheduled": 81,
                           "events_processed": 76, "queue_depth": 5}


def test_far_future_and_huge_times_do_not_break_order():
    """Times near the float ceiling still drain in order."""
    env = Environment()
    fired = _schedule_tagged(
        env, [(1e300, NORMAL, "far"), (1.0, NORMAL, "near"),
              (1e305, NORMAL, "farther")])
    env.run()
    assert [tag for _, tag in fired] == ["near", "far", "farther"]


# -- programs that schedule while they drain ----------------------------------
#
# A program is a list of nodes ``(parent, delay, priority, as_timeout)``.
# Nodes without a parent are scheduled before the run; the others are
# scheduled by their parent's callback, mid-drain, relative to the clock
# at that moment.  ``delay=None`` repeats the delay scheduled just
# before it, so ties are common; inf and 1e308 push times to the ceiling.

_SAME = None
_PROGRAMS = st.lists(
    st.tuples(st.integers(-1, 30),
              st.sampled_from([0.0, 1e-9, _SAME, _SAME, 0.25, 1e6,
                               float("inf"), 1e308]),
              st.sampled_from([URGENT, NORMAL]),
              st.booleans()),
    max_size=40)


def _children(program, parent):
    return [i for i, node in enumerate(program)
            if (node[0] if node[0] < i else -1) == parent]


class _Scheduler:
    """What a program does to whatever it is run on: ``submit(node,
    delay, priority, as_timeout)`` for each child of the node that just
    fired, in program order, a timeout always being NORMAL."""

    def __init__(self, program, submit):
        self.program = program
        self.submit = submit
        self.previous = 0.0

    def spawn(self, parent=-1):
        for index in _children(self.program, parent):
            _parent, delay, priority, as_timeout = self.program[index]
            if delay is _SAME:
                delay = self.previous
            self.previous = delay
            self.submit(index, delay, NORMAL if as_timeout else priority,
                        as_timeout)


def _model_run(program):
    """The contract, executed: always dispatch the pending entry that is
    least in (time, priority, schedule index)."""
    pending, fired, now = [], [], 0.0
    scheduler = _Scheduler(
        program, lambda index, delay, priority, _as_timeout: pending.append(
            (now + delay, priority, len(pending) + len(fired), index)))
    scheduler.spawn()
    while pending:
        pending.sort()
        now, _priority, _order, index = pending.pop(0)
        fired.append((now, index))
        scheduler.spawn(index)
    return fired


def _kernel_run(program, drain):
    env = CountingEnvironment()
    fired = []

    def submit(index, delay, priority, as_timeout):
        if as_timeout:
            event = env.timeout(delay)
        else:
            event = Event(env)
            event._ok = True
            env.schedule(event, priority=priority, delay=delay)
        event.callbacks.append(lambda _event: (
            fired.append((env.now, index)), scheduler.spawn(index)))

    scheduler = _Scheduler(program, submit)
    scheduler.spawn()
    drain(env)
    assert env.peek() == float("inf")
    assert env.stats() == {"now": env.now, "events_scheduled": len(program),
                           "events_processed": len(program),
                           "queue_depth": 0}
    return fired


def _by_steps(env):
    """Drain with step(): peek() names the instant each step lands on,
    and the counters match the outside count after every one."""
    while env.stats()["queue_depth"]:
        head = env.peek()
        env.step()
        assert env.now == head
        stats = env.stats()
        assert stats["events_scheduled"] == env.pushes
        assert stats["events_processed"] == env.pops


@settings(max_examples=200, deadline=None)
@given(_PROGRAMS)
def test_programs_that_schedule_mid_drain_match_the_model(program):
    """Order, events_scheduled and events_processed, through run() —
    CountingEnvironment holds the counters to its own on the way out —
    and through step()."""
    modelled = _model_run(program)
    assert len(modelled) == len(program)
    assert _kernel_run(program, lambda env: env.run()) == modelled
    assert _kernel_run(program, _by_steps) == modelled


def test_events_are_never_compared():
    """(time, key) is unique, so a tie on (time, priority) is settled
    by schedule order without ever reaching the event."""
    class Incomparable(Event):
        __slots__ = ()

        def __lt__(self, other):
            raise AssertionError("the queue compared two events")

        __gt__ = __le__ = __ge__ = __lt__

    env = Environment()
    fired = []
    for tag in range(50):
        event = Incomparable(env)
        event._ok = True
        event.callbacks.append(lambda _event, tag=tag: fired.append(tag))
        env.schedule(event, priority=NORMAL, delay=tag % 3)
    env.run()
    assert fired == sorted(range(50), key=lambda tag: (tag % 3, tag))
