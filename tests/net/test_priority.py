"""Tests for priority transmission: QoS enforcement at the link level.

Each direction of a link is a :class:`~repro.net.link.Channel`, a
timeline of bookings: one packet clocks onto it at a time, and the
packets booked behind it start by priority, then in claim order,
whether the packets on it keep a tx-complete event or not.
"""

from types import SimpleNamespace

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
    """Behind a first packet — over a link that draws nothing, or, on a
    link that draws, one that keeps its tx-complete — the bookings go
    by priority, equal priorities in the order they claimed; none
    overtakes the packet on the wire."""
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


def test_four_same_instant_sends_queue_four_arrivals_and_nothing_else(env):
    """Over a link that draws nothing, the first send starts at once
    and the other three are booked behind it, each at the instant the
    one before it ends: four arrivals are queued, and neither a
    tx-complete nor a channel wake-up."""
    net, a, b = make_bottleneck(env)
    channel = net.topology.link_between("a", "b").channel("a")
    queued, arrivals = [], []
    b.on_packet(0, lambda packet: arrivals.append(env.now))

    def sender(env):
        yield env.timeout(0.001)
        before = env.events_scheduled
        for _ in range(4):
            a.send("b", size=1000)
        queued.append(env.events_scheduled - before)
        queued.append(len(channel.booked))

    env.process(sender(env))
    env.run()
    assert queued == [4, 3]
    tx = net.topology.link_between("a", "b").transmission_delay(1040)
    ends = [0.001 + tx]
    for _ in range(3):
        ends.append(ends[-1] + tx)
    assert arrivals == ends
    assert not channel.booked


def test_two_channels_share_no_state():
    """Booking one channel leaves another as it was built: the order of
    bookings is channel state, not module state, so runs sharing a
    process stay independent."""
    first, second = Channel(), Channel()
    for tx in (1.0, 2.0, 3.0):
        first.book(SimpleNamespace(priority=BEST_EFFORT_PRIORITY, tx=tx), 0.0)
    claim = SimpleNamespace(priority=BEST_EFFORT_PRIORITY, tx=1.0)
    assert second.book(claim, 0.0) == ()
    assert (claim.start, second.busy_until, second.booked) == (
        0.0, 1.0, [claim])
    assert (first.busy_until, len(first.booked)) == (6.0, 3)


def test_a_booking_that_starts_at_the_claim_is_not_overtaken():
    """A booking whose start is the claim's own instant has started: a
    reserved claim made then books behind it, takes the start of the
    best-effort booking after it, and re-times that one alone."""
    channel = Channel()
    first, second, third = (
        SimpleNamespace(priority=BEST_EFFORT_PRIORITY, tx=1.0)
        for _ in range(3))
    for claim in (first, second, third):
        channel.book(claim, 0.0)
    reserved = SimpleNamespace(priority=RESERVED_PRIORITY, tx=0.5)
    assert channel.book(reserved, 1.0) == [third]
    assert [claim.start for claim in (second, reserved, third)] \
        == [1.0, 2.0, 2.5]
    assert channel.booked == [first, second, reserved, third]
    assert channel.busy_until == 3.5


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
