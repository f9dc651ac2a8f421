"""Tests for the five floor-control policies."""

import pytest

from repro.errors import FloorControlError
from repro.sessions import (
    ChairedFloor,
    FcfsFloor,
    FLOOR_POLICIES,
    FreeFloor,
    NegotiatedFloor,
    RoundRobinFloor,
)
from repro.sessions.floor import CHAIR_DECISION_LATENCY
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_policy_registry():
    assert set(FLOOR_POLICIES) == {"free", "fcfs", "round-robin",
                                   "chaired", "negotiated"}


def test_free_floor_grants_instantly_and_counts_collisions(env):
    floor = FreeFloor(env)

    def speaker(env, name, hold):
        yield floor.request(name)
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 2.0))
    env.process(speaker(env, "bob", 2.0))
    env.run()
    assert floor.counters["grants"] == 2
    assert floor.counters["collisions"] == 1
    assert floor.wait_time.maximum == 0.0


def test_free_floor_release_requires_speaker(env):
    floor = FreeFloor(env)
    with pytest.raises(FloorControlError):
        floor.release("nobody")


def test_fcfs_orders_by_arrival(env):
    floor = FcfsFloor(env)
    order = []

    def speaker(env, name, delay, hold):
        yield env.timeout(delay)
        yield floor.request(name)
        order.append((name, env.now))
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 0.0, 3.0))
    env.process(speaker(env, "bob", 1.0, 1.0))
    env.process(speaker(env, "carol", 0.5, 1.0))
    env.run()
    assert order == [("alice", 0.0), ("carol", 3.0), ("bob", 4.0)]
    assert floor.wait_time.count == 3


def test_fcfs_release_requires_holder(env):
    floor = FcfsFloor(env)
    floor.request("alice")
    with pytest.raises(FloorControlError):
        floor.release("bob")


def test_round_robin_preempts_hog(env):
    floor = RoundRobinFloor(env, quantum=2.0)
    preempted = []
    floor.on_preempt = preempted.append
    got_floor = []

    def hog(env):
        yield floor.request("hog")
        got_floor.append(("hog", env.now))
        # never releases

    def waiter(env):
        yield env.timeout(0.5)
        yield floor.request("waiter")
        got_floor.append(("waiter", env.now))
        floor.release("waiter")

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert got_floor == [("hog", 0.0), ("waiter", 2.0)]
    assert preempted == ["hog"]
    assert floor.counters["preemptions"] == 1


def test_round_robin_no_preemption_without_waiters(env):
    floor = RoundRobinFloor(env, quantum=1.0)

    def holder(env):
        yield floor.request("alice")
        yield env.timeout(5.0)
        floor.release("alice")

    env.process(holder(env))
    env.run()
    assert floor.counters["preemptions"] == 0


def test_round_robin_quantum_validation(env):
    with pytest.raises(FloorControlError):
        RoundRobinFloor(env, quantum=0)


def test_chaired_floor_grants_after_decision_latency(env):
    floor = ChairedFloor(env, chair="prof")
    granted = []

    def speaker(env):
        yield floor.request("alice")
        granted.append(env.now)

    env.process(speaker(env))
    env.run()
    assert granted == [CHAIR_DECISION_LATENCY]


def test_chaired_floor_queues_while_held(env):
    floor = ChairedFloor(env, chair="prof")
    order = []

    def speaker(env, name, hold):
        yield floor.request(name)
        order.append((name, env.now))
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 2.0))
    env.process(speaker(env, "bob", 1.0))
    env.run()
    assert order == [("alice", CHAIR_DECISION_LATENCY),
                     ("bob", CHAIR_DECISION_LATENCY + 2.0)]


def test_negotiated_floor_holder_yields(env):
    floor = NegotiatedFloor(env, negotiation_latency=0.5)
    timeline = []

    def first(env):
        yield floor.request("alice")
        timeline.append(("alice", env.now))
        # alice never explicitly releases; she yields when asked.

    def second(env):
        yield env.timeout(1.0)
        yield floor.request("bob")
        timeline.append(("bob", env.now))

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert timeline == [("alice", 0.0), ("bob", 1.5)]
    assert floor.counters["yields"] == 1


def test_negotiated_floor_refusal_waits_for_release(env):
    floor = NegotiatedFloor(
        env, yields=lambda holder, requester: False,
        negotiation_latency=0.5)
    timeline = []

    def first(env):
        yield floor.request("alice")
        yield env.timeout(5.0)
        floor.release("alice")

    def second(env):
        yield env.timeout(1.0)
        yield floor.request("bob")
        timeline.append(env.now)

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert timeline == [5.0]
    assert floor.counters["refusals"] == 1


def test_turn_counts_fairness_metric(env):
    floor = FcfsFloor(env)

    def speaker(env, name, turns):
        for _ in range(turns):
            yield floor.request(name)
            yield env.timeout(0.1)
            floor.release(name)

    env.process(speaker(env, "alice", 3))
    env.process(speaker(env, "bob", 1))
    env.run()
    counts = floor.turn_counts()
    assert counts == {"alice": 3, "bob": 1}


def test_floor_latency_validation(env):
    with pytest.raises(FloorControlError):
        NegotiatedFloor(env, negotiation_latency=-1)
