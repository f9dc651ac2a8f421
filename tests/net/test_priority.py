"""Tests for priority transmission: QoS enforcement at the link level.

Each direction of a link is a :class:`~repro.net.link.Channel`: one
packet clocks onto it at a time, and waiting packets are granted by
priority, then in claim order, whether a one-event hop has booked the
channel or a hop that keeps its tx-complete holds it.
"""

import pytest

from repro.net import Network, Topology
from repro.net.link import Channel
from repro.net.network import BEST_EFFORT_PRIORITY, RESERVED_PRIORITY
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_bottleneck(env, bandwidth=1e5, jitter=0.0):
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.0, bandwidth=bandwidth, jitter=jitter)
    net = Network(env, topo)
    return net, net.host("a"), net.host("b")


def test_reserved_packet_overtakes_queued_besteffort(env):
    """A reserved packet jumps a queue of best-effort packets."""
    net, a, b = make_bottleneck(env, bandwidth=1e5)  # 100 kb/s
    arrivals = []
    b.on_packet(0, lambda packet: arrivals.append(
        (packet.headers.get("tag"), env.now)))
    # Five big best-effort packets queue up (each ~0.8s transmission).
    for i in range(5):
        a.send("b", size=10000, port=0,
               headers={"tag": "bulk-{}".format(i)})
    # A small reserved packet sent a moment later.
    def late_reserved(env):
        yield env.timeout(0.1)
        a.send("b", size=100, port=0,
               headers={"tag": "reserved",
                        "priority": RESERVED_PRIORITY})

    env.process(late_reserved(env))
    env.run()
    order = [tag for tag, _ in arrivals]
    # The reserved packet waited only for the in-flight bulk packet.
    assert order.index("reserved") == 1
    assert order[0] == "bulk-0"


def test_equal_priority_is_fifo(env):
    net, a, b = make_bottleneck(env)
    arrivals = []
    b.on_packet(0, lambda packet: arrivals.append(
        packet.headers.get("tag")))
    for i in range(8):
        a.send("b", size=1000, port=0, headers={"tag": i, "priority": 5})
    env.run()
    assert arrivals == list(range(8))


@pytest.mark.parametrize("jitter", [0.0, 1e-4], ids=["booked", "held"])
def test_waiters_are_granted_by_priority_then_claim_order(env, jitter):
    """Behind a first packet — one that booked the channel, or, on a
    link that draws, one that holds it until its tx-complete — the
    waiters go by priority, equal priorities in the order they
    claimed; none overtakes the packet on the wire."""
    net, a, b = make_bottleneck(env, jitter=jitter)
    arrivals = []
    b.on_packet(0, lambda packet: arrivals.append(
        packet.headers["tag"]))

    def sender(env):
        a.send("b", size=10000, headers={"tag": "first", "priority": 9})
        yield env.timeout(0.1)
        for tag, priority in (("five", 5), ("nine", 9), ("zero", 0),
                              ("five again", 5)):
            a.send("b", size=100, headers={"tag": tag,
                                           "priority": priority})

    env.process(sender(env))
    env.run()
    assert arrivals == ["first", "zero", "five", "five again", "nine"]


def test_a_booked_channel_wakes_once_for_its_waiters(env):
    """Four same-instant sends queue two events: the first's arrival
    and the booked channel's one wake-up, which grants the first
    waiter; each later grant comes from the release before it."""
    net, a, b = make_bottleneck(env)
    channel = net.topology.link_between("a", "b").channel("a")
    queued = []

    def sender(env):
        yield env.timeout(0.001)
        before = env.events_scheduled
        for _ in range(4):
            a.send("b", size=1000)
        queued.append(env.events_scheduled - before)
        queued.append(len(channel.waiting))

    env.process(sender(env))
    env.run()
    assert queued == [2, 3]
    assert net.counters["delivered"] == 4
    assert not (channel.waiting or channel.holder)


def test_tie_break_tickets_are_per_channel(env):
    first, second = Channel(env), Channel(env)
    # Exhausting tickets on one channel must not advance the other's
    # sequence: the tie-break counter is channel state, not module
    # state, so runs sharing a process stay independent.
    for _ in range(5):
        next(first._tickets)
    assert next(second._tickets) == 1


def test_priority_defaults(env):
    net, a, b = make_bottleneck(env)
    received = []
    b.on_packet(0, lambda packet: received.append(packet))
    a.send("b", size=10)
    env.run()
    assert received
    assert BEST_EFFORT_PRIORITY > RESERVED_PRIORITY


def test_reserved_stream_latency_independent_of_bulk_load(env):
    """Under sustained bulk load, reserved latency stays bounded."""
    net, a, b = make_bottleneck(env, bandwidth=1e6)
    reserved_latencies = []

    def on_packet(packet):
        if packet.headers.get("tag") == "reserved":
            reserved_latencies.append(env.now - packet.created_at)

    b.on_packet(0, on_packet)

    def bulk(env):
        while env.now < 3.0:
            a.send("b", size=5000, port=0, headers={"tag": "bulk"})
            yield env.timeout(0.02)  # ~2x link capacity offered

    def reserved(env):
        while env.now < 3.0:
            a.send("b", size=500, port=0,
                   headers={"tag": "reserved",
                            "priority": RESERVED_PRIORITY})
            yield env.timeout(0.1)

    env.process(bulk(env))
    env.process(reserved(env))
    env.run(until=5.0)
    assert reserved_latencies
    # Bounded by one in-flight bulk transmission + own transmission:
    # (5040*8 + 540*8) / 1e6 ≈ 45 ms.
    assert max(reserved_latencies) < 0.05
