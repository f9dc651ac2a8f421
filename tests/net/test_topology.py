"""Tests for topologies, links and routing."""

import pytest

from repro.errors import NetworkError, RoutingError
from repro.net import Network, Topology, dumbbell, lan, line, star, wan
from repro.net.packet import HEADER_BYTES
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_add_nodes_and_links(env):
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.01)
    assert set(topo.nodes) == {"a", "b"}
    assert topo.link_between("a", "b").latency == 0.01


def test_add_node_idempotent(env):
    topo = Topology(env)
    topo.add_node("a")
    topo.add_node("a")
    assert topo.nodes == ["a"]


def test_self_link_rejected(env):
    topo = Topology(env)
    with pytest.raises(NetworkError):
        topo.add_link("a", "a")


def test_duplicate_link_rejected(env):
    topo = Topology(env)
    topo.add_link("a", "b")
    with pytest.raises(NetworkError):
        topo.add_link("b", "a")


def test_missing_link_raises(env):
    topo = Topology(env)
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(NetworkError):
        topo.link_between("a", "b")


def test_neighbours(env):
    topo = Topology(env)
    topo.add_link("a", "b")
    topo.add_link("a", "c")
    assert sorted(topo.neighbours("a")) == ["b", "c"]
    with pytest.raises(NetworkError):
        topo.neighbours("zzz")


def test_links_listed_once(env):
    topo = Topology(env)
    topo.add_link("a", "b")
    topo.add_link("b", "c")
    assert len(topo.links()) == 2


def test_path_direct(env):
    topo = Topology(env)
    link = topo.add_link("a", "b")
    assert topo.path("a", "b") == [link]


def test_path_to_self_is_empty(env):
    topo = Topology(env)
    topo.add_node("a")
    assert topo.path("a", "a") == []


def test_path_multi_hop(env):
    topo = line(env, 4)
    path = topo.path("n0", "n3")
    assert len(path) == 3
    assert topo.hops("n0", "n3") == 3


def test_path_prefers_lower_latency(env):
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.100)
    topo.add_link("a", "c", latency=0.001)
    topo.add_link("c", "b", latency=0.001)
    path = topo.path("a", "b")
    assert len(path) == 2  # via c, not the direct slow link


def test_no_route_raises(env):
    topo = Topology(env)
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(RoutingError):
        topo.path("a", "b")


def test_unknown_endpoint_raises(env):
    topo = Topology(env)
    topo.add_node("a")
    with pytest.raises(RoutingError):
        topo.path("a", "ghost")


def test_down_link_excluded_from_routes(env):
    topo = Topology(env)
    direct = topo.add_link("a", "b", latency=0.001)
    topo.add_link("a", "c", latency=0.010)
    topo.add_link("c", "b", latency=0.010)
    assert topo.path("a", "b") == [direct]
    direct.set_up(False)
    topo.invalidate_routes()
    assert len(topo.path("a", "b")) == 2


def test_path_latency(env):
    topo = line(env, 3, latency=0.005)
    assert abs(topo.path_latency("n0", "n2") - 0.010) < 1e-12


def test_lan_builder(env):
    topo = lan(env, hosts=4)
    assert len(topo.nodes) == 5
    assert topo.hops("host0", "host3") == 2


def test_lan_requires_hosts(env):
    with pytest.raises(NetworkError):
        lan(env, hosts=0)


def test_wan_builder(env):
    topo = wan(env, sites=3, hosts_per_site=2)
    assert "site0.host0" in topo.nodes
    assert "site2.router" in topo.nodes
    # Host to host across sites: lan + wan + lan = 3 hops.
    assert topo.hops("site0.host0", "site2.host1") == 3


def test_wan_requires_sites(env):
    with pytest.raises(NetworkError):
        wan(env, sites=0)


def test_star_builder(env):
    topo = star(env, leaves=5)
    assert topo.hops("leaf0", "leaf4") == 2


def test_dumbbell_builder(env):
    topo = dumbbell(env, left=2, right=2)
    assert topo.hops("left0", "right1") == 3
    bottleneck = topo.link_between("routerL", "routerR")
    assert bottleneck.bandwidth == 1e6


def test_line_requires_two_nodes(env):
    with pytest.raises(NetworkError):
        line(env, 1)


def test_link_validation(env):
    topo = Topology(env)
    with pytest.raises(NetworkError):
        topo.add_link("a", "b", latency=-1)
    with pytest.raises(NetworkError):
        topo.add_link("a", "c", bandwidth=0)
    with pytest.raises(NetworkError):
        topo.add_link("a", "d", loss=1.5)
    with pytest.raises(NetworkError):
        topo.add_link("a", "e", jitter=-0.1)


def test_link_other_end(env):
    topo = Topology(env)
    link = topo.add_link("a", "b")
    assert link.other_end("a") == "b"
    assert link.other_end("b") == "a"
    with pytest.raises(NetworkError):
        link.other_end("c")


def test_link_delays(env):
    """A hop costs the link's transmission delay, then its latency."""
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.01, bandwidth=8000)
    assert link.transmission_delay(1000) == 1.0  # 8000 bits at 8000 b/s
    net = Network(env, topo)
    net.host("b")
    net.host("a").send("b", size=1000 - HEADER_BYTES)
    env.run()
    assert net.delivery_latency.values == [1.0 + 0.01]


def test_link_jitter_bounds(env):
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.01, jitter=0.005, bandwidth=1e12)
    net = Network(env, topo)
    net.host("b")
    for _ in range(100):
        net.host("a").send("b")
    env.run()
    latencies = net.delivery_latency.values
    assert len(latencies) == 100 and len(set(latencies)) > 1
    # 100 transmissions of 40 bytes at 1 Tb/s take 32 ns in all.
    assert all(0.01 <= latency <= 0.015 + 1e-7 for latency in latencies)


class _Draws:
    """An RNG stub that hands out the given draws, and fails past them."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_link_loss_draw(env):
    """A lossless hop draws nothing and a downed link drops without a
    draw; otherwise one draw per hop decides: below ``loss`` is "loss",
    in the band a loss burst adds above it "impairment"."""
    topo = Topology(env)
    topo.add_link("a", "b", bandwidth=8000, rng=_Draws())
    link = topo.add_link("b", "c", loss=0.25, bandwidth=8000,
                         rng=_Draws(0.1, 0.3, 0.3, 0.8))
    net = Network(env, topo)
    fates = []
    net.host("c").on_packet(0, lambda packet: fates.append(
        (packet.payload, "delivered")))
    net.on_drop = lambda packet, reason: fates.append(
        (packet.payload, reason))

    def driver(env):
        for payload in range(5):
            if payload == 2:
                link.impair(extra_loss=0.5)
            net.host("a").send("c", payload=payload, size=960)  # 1 s a hop
            if payload == 4:
                yield env.timeout(1.5)      # on the wire of its second hop
                link.set_up(False)
            yield env.timeout(10)

    env.process(driver(env))
    env.run()
    assert fates == [(0, "loss"), (1, "delivered"), (2, "impairment"),
                     (3, "delivered"), (4, "link-down")]
