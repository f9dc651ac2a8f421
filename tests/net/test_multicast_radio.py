"""Tests for multicast delivery and radio/mobile links."""

import pytest

from repro.errors import GroupError, NetworkError
from repro.net import (
    ConnectivityLevel,
    ConnectivitySchedule,
    MulticastService,
    Network,
    Topology,
    attach_mobile,
    periodic_trace,
    star,
    wan,
)
from repro.net.network import RESERVED_PRIORITY
from repro.obs.flight import FlightRecorder, use_flight
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_star_net(env, leaves=4):
    topo = star(env, leaves=leaves)
    net = Network(env, topo)
    hosts = [net.host("leaf{}".format(i)) for i in range(leaves)]
    return net, hosts


def test_group_membership(env):
    net, hosts = make_star_net(env)
    service = MulticastService(net)
    group = service.create_group("g")
    group.join("leaf0")
    group.join("leaf1")
    assert "leaf0" in group
    assert len(group) == 2
    group.leave("leaf0")
    assert "leaf0" not in group


def test_join_requires_attached_host(env):
    net, hosts = make_star_net(env)
    service = MulticastService(net)
    group = service.create_group("g")
    with pytest.raises(GroupError):
        group.join("hub")  # node exists but no host attached


def test_create_group_idempotent(env):
    net, _ = make_star_net(env)
    service = MulticastService(net)
    assert service.create_group("g") is service.create_group("g")


def test_send_unknown_group(env):
    net, _ = make_star_net(env)
    service = MulticastService(net)
    with pytest.raises(GroupError):
        service.send("ghost", "leaf0")


def test_multicast_reaches_all_members(env):
    net, hosts = make_star_net(env, leaves=4)
    service = MulticastService(net)
    group = service.create_group("g")
    for i in range(4):
        group.join("leaf{}".format(i))
    got = []
    for host in hosts[1:]:
        host.on_packet(service.port,
                       lambda packet, name=host.name:
                       got.append((name, packet.payload)))
    service.send("g", "leaf0", payload="video-frame", size=100)
    env.run()
    assert sorted(got) == [("leaf1", "video-frame"),
                           ("leaf2", "video-frame"),
                           ("leaf3", "video-frame")]


def test_members_are_sent_to_in_name_order_not_hash_order(env):
    net, hosts = make_star_net(env, leaves=8)
    service = MulticastService(net)
    group = service.create_group("g")
    for i in reversed(range(8)):
        group.join("leaf{}".format(i))
    order = []
    for host in hosts[1:]:
        host.on_packet(service.port,
                       lambda packet, name=host.name: order.append(name))
    expected = ["leaf{}".format(i) for i in range(1, 8)]
    assert [p.dst for p in service.unicast_fanout("g", "leaf0")] == expected
    assert [p.dst for p in service.send("g", "leaf0")] == expected
    env.run()
    assert order == expected * 2


def test_multicast_no_loopback_by_default(env):
    net, hosts = make_star_net(env)
    service = MulticastService(net)
    group = service.create_group("g")
    group.join("leaf0")
    group.join("leaf1")
    got = []
    hosts[0].on_packet(service.port, lambda p: got.append("self"))
    hosts[1].on_packet(service.port, lambda p: got.append("peer"))
    service.send("g", "leaf0", payload="x")
    env.run()
    assert got == ["peer"]


def test_multicast_tree_cheaper_than_unicast_fanout(env):
    """E9's core shape: shared tree links carry the payload once."""
    sites = 4
    env1 = Environment()
    topo1 = wan(env1, sites=sites, hosts_per_site=1)
    net1 = Network(env1, topo1)
    service1 = MulticastService(net1)
    group1 = service1.create_group("g")
    members = ["site{}.host0".format(i) for i in range(sites)]
    for m in members:
        net1.host(m)
        group1.join(m)
    service1.send("g", members[0], size=1000)
    env1.run()
    multicast_bytes = net1.total_link_bytes()

    env2 = Environment()
    topo2 = wan(env2, sites=sites, hosts_per_site=1)
    net2 = Network(env2, topo2)
    service2 = MulticastService(net2)
    group2 = service2.create_group("g")
    for m in members:
        net2.host(m)
        group2.join(m)
    service2.unicast_fanout("g", members[0], size=1000)
    env2.run()
    unicast_bytes = net2.total_link_bytes()

    # Unicast re-sends over the sender's access link per member.
    assert multicast_bytes < unicast_bytes


def _lossy_conference(env, frames=100):
    """leaf0 multicasts ``frames`` frames, one every 10 ms, to leaf1-3
    over a star whose first hop, leaf0<->hub, loses half of them."""
    net, hosts = make_star_net(env)
    service = MulticastService(net)
    group = service.create_group("g")
    received = {}
    for host in hosts:
        group.join(host.name)
        host.on_packet(service.port, lambda packet: received.__setitem__(
            packet.dst, received.get(packet.dst, 0) + 1))
    first = net.topology.link_between("leaf0", "hub")
    first.loss = 0.5

    def pump(env):
        for _ in range(frames):
            service.send("g", "leaf0", size=100)
            yield env.timeout(0.01)

    env.process(pump(env))
    return net, first, received


def test_multicast_traffic_lands_in_the_networks_books():
    """A tree edge's launch, drop and a member's delivery are booked
    where a unicast flight books them, and the drop hook and the flight
    recorder see them as they see a unicast hop."""
    recorder = FlightRecorder(ring=1 << 12)
    with use_flight(recorder):
        env = Environment()
    net, first, received = _lossy_conference(env)
    hooked = []
    net.on_drop = lambda packet, reason: hooked.append(
        (env.active_process is not None, packet.dst, reason))
    env.run()
    drops = first.stats.drops
    heard = 100 - drops
    assert 0 < drops < 100
    assert received == {"leaf1": heard, "leaf2": heard, "leaf3": heard}
    assert net.drop_stats() == {"loss": drops}
    assert hooked == [(True, "hub", "loss")] * drops
    assert net.counters["delivered"] == 3 * heard
    assert net.delivery_latency.count == 3 * heard
    # Every frame flies the root edge; the three member edges fly only
    # past the hub, so a dropped frame launched one flight.
    launched = 100 + 3 * heard
    assert net.counters["sent"] == net.hosts["leaf0"].sent == launched
    assert net.counters["delivered"] + net.counters["dropped"] <= launched
    registry = env.metrics
    assert registry.counter_total("net.sent") == launched
    assert registry.counter_total("net.node.sent", node="leaf0") \
        == launched
    assert registry.counter_total("net.drops", reason="loss") == drops
    assert registry.counter_total("net.link.drops", link=first.label,
                                  reason="loss") == drops
    for member in ("leaf1", "leaf2", "leaf3"):
        assert registry.counter_total("net.node.delivered",
                                      node=member) == heard
    records = recorder.ring
    assert [(record["link"], record["dst"]) for record in records
            if record["kind"] == "drop"] == [(first.label, "hub")] * drops
    hops = [(record["link"], record["dst"]) for record in records
            if record["kind"] == "hop"]
    assert len(hops) == 4 * heard
    assert hops[:4] == [(first.label, "hub")] + [
        (net.topology.link_between("hub", member).label, member)
        for member in ("leaf1", "leaf2", "leaf3")]


def test_a_multicast_frame_costs_one_queued_event_per_free_edge_and_no_more():
    """The lossy first edge keeps two events (tx-complete, where it
    draws, then arrival), one for a frame it drops; each of the three
    hub edges is one event, its arrival (its channel is free and its
    link draws nothing).  The rest is the pump's own: its start, 100
    timeouts and its exit."""
    env = Environment()
    net, first, _ = _lossy_conference(env)
    env.run()
    drops = first.stats.drops
    stats = env.stats()
    assert stats["events_processed"] == (2 + 3) * (100 - drops) + drops + 102
    assert stats["events_scheduled"] == stats["events_processed"]


def test_tree_edges_claim_at_best_effort_priority(env):
    """A reserved datagram overtakes a tree edge queued behind a bulk
    transfer on the sender's link, as it overtakes any datagram."""
    net, hosts = make_star_net(env, leaves=2)
    service = MulticastService(net)
    group = service.create_group("g")
    group.join("leaf0")
    group.join("leaf1")
    arrivals = []
    for port in (0, service.port):
        hosts[1].on_packet(port, lambda packet: arrivals.append(
            packet.payload))

    def sender(env):
        hosts[0].send("leaf1", payload="bulk", size=10 ** 6)    # 80 ms
        service.send("g", "leaf0", payload="frame")
        yield env.timeout(0.001)
        hosts[0].send("leaf1", payload="reserved",
                      headers={"priority": RESERVED_PRIORITY})

    env.process(sender(env))
    env.run()
    assert arrivals == ["bulk", "reserved", "frame"]


def test_a_member_the_tree_cannot_reach_books_a_no_route_drop(env):
    net, hosts = make_star_net(env)
    net.topology.add_node("island")
    net.host("island")
    service = MulticastService(net)
    group = service.create_group("g")
    for name in ("leaf0", "leaf1", "island"):
        group.join(name)
    packets = service.send("g", "leaf0")
    env.run()
    assert [(packet.dst, packet.hops, packet.delivered_at is not None)
            for packet in packets] == [("island", 0, False),
                                       ("leaf1", 2, True)]
    assert net.drop_stats() == {"no-route": 1}
    assert net.counters["delivered"] == 1
    # Two tree edges (leaf0 -> hub -> leaf1) and the no-route flight.
    assert net.counters["sent"] == net.hosts["leaf0"].sent == 3


def test_radio_link_levels(env):
    topo = Topology(env)
    topo.add_node("base")
    link = attach_mobile(topo, "mobile", "base",
                         level=ConnectivityLevel.FULL)
    assert link.up
    link.set_level(ConnectivityLevel.DISCONNECTED)
    assert not link.up
    link.set_level(ConnectivityLevel.PARTIAL)
    assert link.up
    assert link.bandwidth < 1e6  # radio is slow


def test_radio_level_listeners(env):
    topo = Topology(env)
    link = attach_mobile(topo, "m", "b")
    seen = []
    link.on_level_change(seen.append)
    link.set_level(ConnectivityLevel.PARTIAL)
    link.set_level(ConnectivityLevel.PARTIAL)  # no-op, no duplicate event
    assert seen == [ConnectivityLevel.PARTIAL]


def test_attach_mobile_validation(env):
    topo = Topology(env)
    with pytest.raises(NetworkError):
        attach_mobile(topo, "x", "x")
    attach_mobile(topo, "m", "b")
    with pytest.raises(NetworkError):
        attach_mobile(topo, "m", "b")


def test_connectivity_schedule_replays_trace(env):
    topo = Topology(env)
    link = attach_mobile(topo, "m", "b", level=ConnectivityLevel.FULL)
    trace = [(1.0, ConnectivityLevel.DISCONNECTED),
             (2.0, ConnectivityLevel.PARTIAL)]
    ConnectivitySchedule(env, link, trace)
    env.run(until=0.5)
    assert link.level is ConnectivityLevel.FULL
    env.run(until=1.5)
    assert link.level is ConnectivityLevel.DISCONNECTED
    env.run(until=2.5)
    assert link.level is ConnectivityLevel.PARTIAL


def test_connectivity_schedule_rejects_unordered(env):
    topo = Topology(env)
    link = attach_mobile(topo, "m", "b")
    with pytest.raises(NetworkError):
        ConnectivitySchedule(env, link, [
            (2.0, ConnectivityLevel.FULL),
            (1.0, ConnectivityLevel.PARTIAL)])


def test_periodic_trace_shape():
    trace = periodic_trace(10.0, 5.0, total=30.0)
    assert trace[0] == (0.0, ConnectivityLevel.PARTIAL)
    assert trace[1] == (10.0, ConnectivityLevel.DISCONNECTED)
    assert trace[2] == (15.0, ConnectivityLevel.PARTIAL)
    assert all(at < 30.0 for at, _ in trace)


def test_periodic_trace_validation():
    with pytest.raises(NetworkError):
        periodic_trace(0, 5, total=10)


def test_routing_follows_connectivity(env):
    topo = Topology(env)
    topo.add_link("base", "server", latency=0.001)
    link = attach_mobile(topo, "mobile", "base",
                         level=ConnectivityLevel.FULL)
    net = Network(env, topo)
    mobile, server = net.host("mobile"), net.host("server")
    got = []
    server.on_packet(0, lambda p: got.append(p.payload))
    mobile.send("server", payload="while-connected")
    env.run()
    assert got == ["while-connected"]
    link.set_level(ConnectivityLevel.DISCONNECTED)
    mobile.send("server", payload="while-disconnected")
    env.run()
    assert got == ["while-connected"]
    assert net.counters["dropped"] == 1


def test_a_radio_link_joins_through_the_topology(env):
    # The link list is read (any path() reads it) before the mobile
    # attaches: the radio link must still be listed, counted in the
    # byte book, and part of the route-state key, so that downing it
    # reroutes a packet to a no-route drop instead of flying it into a
    # down link.
    topo = Topology(env)
    topo.add_link("base", "server", latency=0.001)
    assert [link.label for link in topo.links()] == ["base<->server"]
    radio = attach_mobile(topo, "mobile", "base",
                          level=ConnectivityLevel.FULL)
    assert radio in topo.links()
    net = Network(env, topo)
    mobile = net.host("mobile")
    net.host("server")
    assert [link.label for link in topo.path("mobile", "server")] == [
        radio.label, "base<->server"]
    mobile.send("server", size=100)
    env.run()
    assert radio.stats.bytes > 0
    assert net.total_link_bytes() == 2 * radio.stats.bytes
    assert env.metrics.counter_total(
        "net.bytes", link=radio.label) == radio.stats.bytes
    radio.set_level(ConnectivityLevel.DISCONNECTED)
    mobile.send("server", size=100)
    env.run()
    assert net.drop_stats() == {"no-route": 1}
