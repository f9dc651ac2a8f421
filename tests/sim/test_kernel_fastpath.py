"""The kernel fast paths must behave exactly like the generic paths."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event, PriorityResource, Resource, Timeout
from repro.sim.events import NORMAL, URGENT
from repro.sim.resources import PriorityRequest


@pytest.fixture
def env():
    return Environment()


def test_timeout_fast_path_matches_generic_event(env):
    event = env.timeout(1.5, value="v")
    assert isinstance(event, Timeout)
    assert event.delay == 1.5
    assert event.triggered and event.ok
    assert event.value == "v"
    assert env.events_scheduled == 1


def test_timeout_rejects_negative_delay(env):
    with pytest.raises(SimulationError):
        env.timeout(-0.1)
    # The failed call must not have queued anything.
    assert env.events_scheduled == 0
    assert env.peek() == float("inf")


def test_events_scheduled_counts_every_queued_event(env):
    env.timeout(0.1)
    env.schedule(Event(env))
    assert env.events_scheduled == 2
    env.run(until=1.0)
    # run(until=...) queues the until-event itself.
    assert env.events_scheduled == 3
    assert env.events_processed == 3


def test_urgent_still_beats_normal_at_same_instant(env):
    order = []
    normal = env.timeout(0.0)
    normal.callbacks.append(lambda _e: order.append("normal"))
    urgent = Event(env)
    urgent._ok = True
    urgent.callbacks.append(lambda _e: order.append("urgent"))
    env.schedule(urgent, priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]
    assert URGENT < NORMAL


def test_events_are_slotted(env):
    with pytest.raises(AttributeError):
        env.timeout(0.1).arbitrary = 1
    with pytest.raises(AttributeError):
        Event(env).arbitrary = 1


def test_events_processed_is_exact_after_failed_run(env):
    def boom(env):
        yield env.timeout(0.1)
        raise RuntimeError("bang")

    env.timeout(0.05)
    env.process(boom(env))
    with pytest.raises(RuntimeError):
        env.run()
    # Initialize + plain timeout + process timeout + process-failure
    # event all drained before the error escalated.
    assert env.events_processed == 4


def test_priority_request_grant_fast_path_matches_queued_path(env):
    channel = PriorityResource(env, capacity=1)
    first = channel.request(priority=1)
    second = channel.request(priority=0)
    # First claim granted immediately; second queued.
    assert first.triggered
    assert not second.triggered
    env.run()
    assert first.usage_since == 0.0
    channel.release(first)
    env.run()
    assert second.triggered


def test_named_resource_wait_histogram_covers_fast_path(env):
    from repro.obs.metrics import MetricsRegistry, use_metrics
    with use_metrics(MetricsRegistry()) as metrics:
        resource = Resource(env, capacity=1, name="disk")
        resource.request()
        channel = PriorityResource(env, capacity=1, name="lane")
        channel.request(priority=0)
        env.run()
        # Plain and priority claims both record a zero wait.
        assert metrics.histogram("resource.wait", resource="disk").count == 1
        assert metrics.histogram("resource.wait", resource="lane").count == 1


def test_release_of_queued_request_still_withdraws(env):
    resource = Resource(env, capacity=1)
    holder = resource.request()
    queued = resource.request()
    env.run()
    resource.release(queued)  # withdraw from the wait queue
    resource.release(holder)
    env.run()
    assert not queued.triggered
    assert resource.users == []


# -- fused grants, elided puts, queue edge cases --------------------------

def test_equal_priority_claims_stay_fifo(env):
    """Tie-break order is creation order."""
    channel = PriorityResource(env, capacity=1)
    order = []

    def claimant(env, tag):
        claim = channel.request(priority=5)
        yield claim
        order.append(tag)
        yield env.timeout(0.01)
        channel.release(claim)

    for tag in range(8):
        env.process(claimant(env, tag))
    env.run()
    assert order == list(range(8))


def test_cancellation_interleaved_with_timeouts(env):
    """Interrupting a process waiting on a Timeout mid-queue must not
    disturb the dispatch order of the surviving events."""
    log = []

    def sleeper(env):
        try:
            yield env.timeout(2.0)
            log.append("slept")
        except Exception as error:
            log.append("interrupted:{}".format(error.cause))

    def ticker(env):
        for i in range(4):
            yield env.timeout(0.5)
            log.append("tick{}".format(i))

    victim = env.process(sleeper(env))
    env.process(ticker(env))

    def assassin(env):
        yield env.timeout(1.0)
        victim.interrupt("late")

    env.process(assassin(env))
    env.run()
    assert log == ["tick0", "interrupted:late", "tick1", "tick2", "tick3"]


def test_grant_delay_fusion_keeps_counters_exact(env):
    """A fused claim (grant_delay) is granted, resumed and released at
    the instants of the claim-then-timeout formulation, and the counters
    say what it saved: the grant event of every claim was never queued."""
    def fused(env, channel, log):
        claim = PriorityRequest(channel, 0, grant_delay=0.25)
        yield claim
        log.append((claim.usage_since, env.now))
        channel.release(claim)

    def split(env, channel, log):
        claim = channel.request(priority=0)
        yield claim
        yield env.timeout(0.25)
        log.append((claim.usage_since, env.now))
        channel.release(claim)

    def drive(worker):
        env = Environment()
        channel = PriorityResource(env, capacity=1)
        log = []
        for _ in range(2):      # the second claim queues behind the first
            env.process(worker(env, channel, log))
        env.run()
        assert env.events_processed == env.events_scheduled
        return (log, env.now), env.events_scheduled

    (fused_saw, fused_events), (split_saw, split_events) = \
        drive(fused), drive(split)
    assert fused_saw == split_saw == ([(0.0, 0.25), (0.25, 0.5)], 0.5)
    assert fused_events == split_events - 2


def test_fused_claim_contended_path_still_honours_delay(env):
    """Queued fused claims must fire at grant_time + grant_delay."""
    channel = PriorityResource(env, capacity=1)
    granted = []

    def holder(env):
        claim = channel.request(priority=0)
        yield claim
        yield env.timeout(1.0)
        channel.release(claim)

    def waiter(env):
        claim = PriorityRequest(channel, 0, grant_delay=0.5)
        yield claim
        granted.append(env.now)
        channel.release(claim)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert granted == [1.5]


def test_store_put_fast_matches_generic_put(env):
    """Same items to the same consumer at the same instants; the put
    event nobody could wait on is the one event per item not queued."""
    from repro.sim import Store

    def consumer(env, store, seen):
        for _ in range(3):
            item = yield store.get()
            seen.append((env.now, item))

    def producer(env, store, fast):
        for i in range(3):
            yield env.timeout(0.1)
            if fast:
                store.put_fast(i)
            else:
                store.put(i)

    def drive(fast):
        env = Environment()
        store = Store(env)
        seen = []
        env.process(consumer(env, store, seen))
        env.process(producer(env, store, fast))
        env.run()
        assert env.events_processed == env.events_scheduled
        return (seen, env.now, len(store)), env.events_scheduled

    (fast_saw, fast_events), (slow_saw, slow_events) = \
        drive(True), drive(False)
    assert fast_saw == slow_saw
    assert fast_events == slow_events - 3


def test_store_put_fast_falls_back_when_bounded_or_named(env):
    from repro.sim import Store
    bounded = Store(env, capacity=1)
    bounded.put(0)
    assert bounded.put_fast(1) is not None  # full: generic put event
    named = Store(env, name="inbox")
    assert named.put_fast("x") is not None  # named: metrics need events

