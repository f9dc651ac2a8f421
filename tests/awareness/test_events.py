"""Tests for awareness events, the bus and workspace adaptation."""

import pytest

from repro.awareness import (
    ACTION_EDIT,
    AwarenessBus,
    WorkspaceAwareness,
)
from repro.awareness.events import EVENT_SIZE
from repro.concurrency import SharedStore
from repro.faults import FaultInjector, FaultSchedule
from repro.net import Network, Topology, wan
from repro.net.packet import HEADER_BYTES
from repro.sim import Environment
from tests.counting import CountingEnvironment

#: 1 MB/s: a datagram's transmission time is its wire bytes in µs.
BANDWIDTH = 8e6
TX = (EVENT_SIZE + HEADER_BYTES) * 8 / BANDWIDTH


@pytest.fixture
def env():
    return Environment()


def network(env, latency=0.5, users=("bob", "carol")):
    """``alice`` with a direct link of ``latency`` to each of ``users``."""
    topology = Topology(env)
    for user in users:
        topology.add_link("alice", user, latency=latency,
                          bandwidth=BANDWIDTH)
    return Network(env, topology)


def test_publish_reaches_subscriber(env):
    bus = AwarenessBus(network(env))
    seen = []
    bus.subscribe("bob", seen.append)
    bus.publish("alice", "doc", ACTION_EDIT)
    assert seen == []  # in flight
    env.run()
    assert len(seen) == 1
    assert seen[0].actor == "alice"
    assert seen[0].artefact == "doc"


def test_own_actions_filtered_by_default(env):
    net = network(env)
    bus = AwarenessBus(net)
    seen = []
    bus.subscribe("alice", seen.append)
    bus.publish("alice", "doc", ACTION_EDIT)
    env.run()
    assert seen == []
    assert net.counters["sent"] == 0 and env.now == 0.0


def test_latency_delays_delivery(env):
    bus = AwarenessBus(network(env, latency=0.5))
    seen = []
    bus.subscribe("bob", lambda event: seen.append(env.now))
    bus.publish("alice", "doc", ACTION_EDIT)
    env.run()
    assert seen == [pytest.approx(0.5 + TX)]


def test_counters_and_log(env):
    net = network(env)
    bus = AwarenessBus(net)
    bus.subscribe("bob", lambda event: None)
    bus.subscribe("carol", lambda event: None)
    bus.publish("alice", "doc", ACTION_EDIT)
    env.run()
    assert bus.counters["published"] == 1
    assert bus.counters["delivered"] == 2
    assert len(bus.delivered_log) == 2
    assert net.counters["sent"] == net.counters["delivered"] == 2


def test_one_datagram_per_host_however_many_subscribe_there(env):
    net = network(env)
    bus = AwarenessBus(net)
    seen = []
    for name in ("bob", "bob-again", "bob-too"):
        bus.subscribe(name, seen.append, host="bob")
    bus.publish("alice", "doc", ACTION_EDIT)
    env.run()
    assert len(seen) == 3
    assert net.counters["sent"] == 1
    assert net.total_link_bytes() == EVENT_SIZE + HEADER_BYTES


def test_workspace_awareness_publishes_writes(env):
    store = SharedStore()
    workspace = WorkspaceAwareness(store, AwarenessBus(network(env)))
    seen = []
    workspace.watch("bob", seen.append)
    store.write("doc", "v1", writer="alice", at=env.now)
    env.run()
    assert len(seen) == 1
    assert seen[0].action == ACTION_EDIT
    assert seen[0].detail == {"version": 1}


def test_workspace_awareness_artefact_filter(env):
    store = SharedStore()
    workspace = WorkspaceAwareness(store, AwarenessBus(network(env)))
    seen = []
    workspace.watch("bob", seen.append, artefact="doc-A")
    store.write("doc-A", "x", writer="alice")
    store.write("doc-B", "y", writer="alice")
    env.run()
    assert len(seen) == 1
    assert seen[0].artefact == "doc-A"


def test_workspace_awareness_notification_time(env):
    """F2's key metric: notification is continuous, not commit-time."""
    store = SharedStore()
    workspace = WorkspaceAwareness(
        store, AwarenessBus(network(env, latency=0.1)))
    notified_at = []
    workspace.watch("bob", lambda event: notified_at.append(env.now))

    def writer(env):
        for i in range(3):
            yield env.timeout(1.0)
            store.write("doc", "v{}".format(i), writer="alice")

    env.process(writer(env))
    env.run()
    assert notified_at == [pytest.approx(at + 0.1 + TX)
                           for at in (1.0, 2.0, 3.0)]


# -- a delivery is a packet ------------------------------------------------------

def test_a_delivery_costs_its_packets_events_and_no_process():
    """A send made at set-up queues its start; each hop, over a link
    that draws nothing, then queues only its arrival, also the ten
    datagrams to one host booked behind each other on the sender's
    link."""
    env = CountingEnvironment()
    bus = AwarenessBus(network(env, latency=0.25))
    seen = []
    for name in ("alice", "bob", "carol"):
        bus.subscribe(name, seen.append)
    for _ in range(10):
        bus.publish("alice", "doc", ACTION_EDIT)    # bob and carol
    assert (env.pushes, env.processes) == (20, 0)
    env.run()
    assert (env.pushes, env.pops, env.processes) == (40, 40, 0)
    assert bus.counters["delivered"] == len(seen) == 20
    assert [(at, name) for at, name, _ in bus.delivered_log] == [
        (pytest.approx(0.25 + (i + 1) * TX), name)
        for i in range(10) for name in ("bob", "carol")]


def test_a_raising_subscriber_surfaces_from_run_and_the_run_resumes(env):
    bus = AwarenessBus(network(env, latency=0.1))
    seen = []

    def bob(event):
        raise OSError("display gone")

    bus.subscribe("bob", bob)
    bus.subscribe("carol", seen.append)
    bus.publish("alice", "doc", ACTION_EDIT)
    with pytest.raises(OSError, match="display gone"):
        env.run()
    assert env.now == pytest.approx(0.1 + TX) and seen == []
    env.run()
    assert len(seen) == 1


def test_an_event_does_not_cross_a_partition():
    """Cut two sites apart: an event published across the cut reaches
    nobody there, one published inside a site still arrives."""
    env = Environment()
    topology = wan(env, sites=2, hosts_per_site=2)
    net = Network(env, topology)
    bus = AwarenessBus(net)
    seen = []
    for name in ("site0.host1", "site1.host0"):
        bus.subscribe(name, lambda event, name=name: seen.append(name))
    site0 = [node for node in topology.nodes if node.startswith("site0.")]
    site1 = [node for node in topology.nodes if node.startswith("site1.")]
    FaultInjector(env, net, FaultSchedule().partition(1.0, [site0, site1]))

    def author(env):
        yield env.timeout(2.0)
        bus.publish("site0.host0", "doc", ACTION_EDIT)

    env.process(author(env))
    env.run(until=10.0)
    assert seen == ["site0.host1"]
    assert bus.counters["delivered"] == 1
    assert net.drop_stats() == {"no-route": 1}


# -- subscribing from inside a delivery ----------------------------------------

@pytest.mark.parametrize("latency", [0.0, 0.1])
def test_subscribing_from_inside_a_delivery(env, latency):
    """A subscription made during a delivery does not receive the event
    being delivered and does receive the next."""
    bus = AwarenessBus(network(env, latency=latency))
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
