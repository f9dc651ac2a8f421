"""The calendar queue must dispatch in ``(time, priority, eid)`` order.

These tests pin the ladder/calendar queue's contract down against a
model stated directly in the test — ``sorted`` over ``(now + delay,
priority, schedule index)`` — on adversarial schedules, and check
counters and re-anchoring under skewed delay distributions.
"""

import random

import pytest

from repro.sim import Environment, Event
from repro.sim.environment import dispatch_parts
from repro.sim.events import NORMAL, URGENT


def _drain_order(env):
    """Drain ``env`` one step at a time, logging (now, value) pairs."""
    order = []
    while env.peek() != float("inf"):
        env.step()
        order.append(env.now)
    return order


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
    env.run_all()
    assert env.events_processed == len(entries)
    assert fired == _model(entries)


def test_same_instant_fifo_with_urgent_first():
    """At one instant: URGENT beats NORMAL, then strict schedule order."""
    env = Environment()
    fired = _schedule_tagged(
        env, [(0.5, NORMAL, "n0"), (0.5, URGENT, "u0"),
              (0.5, NORMAL, "n1"), (0.5, URGENT, "u1"),
              (0.5, NORMAL, "n2")])
    env.run_all()
    assert [tag for _, tag in fired] == ["u0", "u1", "n0", "n1", "n2"]


@pytest.mark.parametrize("seed", [1, 13])
def test_zipf_skewed_delays_reanchor_correctly(seed):
    """Heavy-tailed delays force re-anchors; order must survive them."""
    rng = random.Random(seed)
    entries = []
    for tag in range(2000):
        # Zipf-ish: most events near now, a long tail far out.
        delay = 0.001 / (1.0 - rng.random()) ** 1.5
        entries.append((min(delay, 1e6), NORMAL, tag))

    env = Environment()
    fired = _schedule_tagged(env, entries)
    env.run_all(limit=float("inf"))
    assert fired == _model(entries)


def test_dense_same_time_burst_is_served_in_order():
    """A zero-span epoch (every event at one instant) cannot be split
    by any bucket width — it must degrade to one sorted run."""
    env = Environment()
    fired = _schedule_tagged(
        env, [(1.0, NORMAL, tag) for tag in range(5000)])
    env.run()
    with pytest.raises(Exception):
        env.step()  # queue is dry
    assert [tag for _, tag in fired] == list(range(5000))


def test_interleaved_push_during_drain_lands_in_run():
    """Callbacks that schedule into the current run's window must have
    their events served this pass, in order, not postponed."""
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


def test_bootstrap_and_drained_queue_reset():
    """A fresh environment (and a fully drained one) must route pushes
    through the unanchored bootstrap without stale windows."""
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(5.0)
    env.run_all()
    assert env.now == 5.0
    # Drained: the next push must not index a stale bucket window.
    env.timeout(0.5)
    env.run_all()
    assert env.now == 5.5
    assert env.stats()["queue_depth"] == 0


def test_queue_depth_counts_run_buckets_and_overflow():
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
    """Times near the float ceiling park in the overflow and still
    drain in order (the index arithmetic must not overflow)."""
    env = Environment()
    fired = _schedule_tagged(
        env, [(1e300, NORMAL, "far"), (1.0, NORMAL, "near"),
              (1e305, NORMAL, "farther")])
    env.run_all(limit=float("inf"))
    assert [tag for _, tag in fired] == ["near", "far", "farther"]
