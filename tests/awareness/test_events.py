"""Tests for awareness events, the bus and workspace adaptation."""

import pytest

from repro.awareness import (
    ACTION_EDIT,
    AwarenessBus,
    WorkspaceAwareness,
)
from repro.concurrency import SharedStore
from repro.sim import Environment
from tests.counting import CountingEnvironment


@pytest.fixture
def env():
    return Environment()


def test_publish_reaches_subscriber(env):
    bus = AwarenessBus(env)
    seen = []
    bus.subscribe("bob", seen.append)
    bus.publish("alice", "doc", ACTION_EDIT)
    assert len(seen) == 1
    assert seen[0].actor == "alice"
    assert seen[0].artefact == "doc"


def test_own_actions_filtered_by_default(env):
    bus = AwarenessBus(env)
    seen = []
    bus.subscribe("alice", seen.append)
    bus.publish("alice", "doc", ACTION_EDIT)
    assert seen == []


def test_latency_delays_delivery(env):
    bus = AwarenessBus(env, latency=0.5)
    seen = []
    bus.subscribe("bob", lambda event: seen.append(env.now))
    bus.publish("alice", "doc", ACTION_EDIT)
    assert seen == []  # not yet delivered
    env.run()
    assert seen == [0.5]


def test_negative_latency_rejected(env):
    with pytest.raises(ValueError):
        AwarenessBus(env, latency=-1)


def test_counters_and_log(env):
    bus = AwarenessBus(env)
    bus.subscribe("bob", lambda event: None)
    bus.subscribe("carol", lambda event: None)
    bus.publish("alice", "doc", ACTION_EDIT)
    assert bus.counters["published"] == 1
    assert bus.counters["delivered"] == 2
    assert len(bus.delivered_log) == 2


def test_workspace_awareness_publishes_writes(env):
    store = SharedStore()
    workspace = WorkspaceAwareness(env, store)
    seen = []
    workspace.watch("bob", seen.append)
    store.write("doc", "v1", writer="alice", at=env.now)
    assert len(seen) == 1
    assert seen[0].action == ACTION_EDIT
    assert seen[0].detail == {"version": 1}


def test_workspace_awareness_artefact_filter(env):
    store = SharedStore()
    workspace = WorkspaceAwareness(env, store)
    seen = []
    workspace.watch("bob", seen.append, artefact="doc-A")
    store.write("doc-A", "x", writer="alice")
    store.write("doc-B", "y", writer="alice")
    assert len(seen) == 1
    assert seen[0].artefact == "doc-A"


def test_workspace_awareness_notification_time(env):
    """F2's key metric: notification is continuous, not commit-time."""
    store = SharedStore()
    workspace = WorkspaceAwareness(env, store, latency=0.1)
    notified_at = []
    workspace.watch("bob", lambda event: notified_at.append(env.now))

    def writer(env):
        for i in range(3):
            yield env.timeout(1.0)
            store.write("doc", "v{}".format(i), writer="alice")

    env.process(writer(env))
    env.run()
    assert notified_at == [1.1, 2.1, 3.1]


# -- a delayed delivery is a timer ---------------------------------------------

def test_a_delayed_delivery_costs_one_queued_event_and_no_process():
    env = CountingEnvironment()
    bus = AwarenessBus(env, latency=0.25)
    seen = []
    for name in ("alice", "bob", "carol"):
        bus.subscribe(name, seen.append)
    for _ in range(10):
        bus.publish("alice", "doc", ACTION_EDIT)    # bob and carol
    assert (env.pushes, env.processes) == (20, 0)
    env.run()
    assert (env.pushes, env.pops, env.processes) == (20, 20, 0)
    assert bus.counters["delivered"] == len(seen) == 20
    assert [(at, name) for at, name, _ in bus.delivered_log] \
        == [(0.25, "bob"), (0.25, "carol")] * 10


def test_a_raising_subscriber_surfaces_from_run_and_the_run_resumes(env):
    bus = AwarenessBus(env, latency=0.1)
    seen = []

    def bob(event):
        raise OSError("display gone")

    bus.subscribe("bob", bob)
    bus.subscribe("carol", seen.append)
    bus.publish("alice", "doc", ACTION_EDIT)
    with pytest.raises(OSError, match="display gone"):
        env.run()
    assert env.now == pytest.approx(0.1) and seen == []
    env.run()
    assert len(seen) == 1


# -- subscribing from inside a delivery ----------------------------------------

@pytest.mark.parametrize("latency", [0.0, 0.1])
def test_subscribing_from_inside_a_delivery(env, latency):
    """A subscription made during a delivery does not receive the event
    being delivered and does receive the next."""
    bus = AwarenessBus(env, latency=latency)
    feeds = {"bob": [], "bob-again": [], "carol": []}

    def bob(event):
        feeds["bob"].append(event.detail)
        if event.detail == 1:
            bus.subscribe("carol", lambda e: feeds["carol"].append(e.detail))
            bus.subscribe("bob", lambda e: feeds["bob-again"].append(
                e.detail))

    bus.subscribe("bob", bob)
    bus.publish("alice", "doc", ACTION_EDIT, detail=1)
    env.run()
    bus.publish("alice", "doc", ACTION_EDIT, detail=2)
    env.run()
    assert feeds == {"bob": [1, 2], "bob-again": [2], "carol": [2]}
