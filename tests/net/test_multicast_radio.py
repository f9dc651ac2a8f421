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


def test_multicast_loopback(env):
    net, hosts = make_star_net(env)
    service = MulticastService(net)
    group = service.create_group("g")
    group.join("leaf0")
    group.join("leaf1")
    got = []
    hosts[0].on_packet(service.port, lambda p: got.append("self"))
    hosts[1].on_packet(service.port, lambda p: got.append("peer"))
    service.send("g", "leaf0", payload="x", loopback=True)
    env.run()
    assert sorted(got) == ["peer", "self"]


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
