"""Tests for packet delivery, hosts and the network engine."""

import pytest

from repro.errors import NetworkError
from repro.net import HEADER_BYTES, Network, Packet, Topology, lan, line
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_pair(env, latency=0.01, bandwidth=1e9, loss=0.0):
    topo = Topology(env)
    topo.add_link("a", "b", latency=latency, bandwidth=bandwidth, loss=loss)
    net = Network(env, topo)
    return net, net.host("a"), net.host("b")


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet("a", "b", size=-1)


def test_packet_wire_size():
    packet = Packet("a", "b", size=100)
    assert packet.wire_size == 100 + HEADER_BYTES


def test_packet_latency_none_until_delivered():
    packet = Packet("a", "b")
    assert packet.latency is None


def test_host_requires_topology_node(env):
    topo = Topology(env)
    topo.add_node("a")
    net = Network(env, topo)
    with pytest.raises(NetworkError):
        net.host("ghost")


def test_host_is_cached(env):
    net, a, b = make_pair(env)
    assert net.host("a") is a


def test_network_env_mismatch(env):
    other = Environment()
    topo = Topology(other)
    with pytest.raises(NetworkError):
        Network(env, topo)


def test_basic_delivery(env):
    net, a, b = make_pair(env, latency=0.01)

    def receiver(env):
        packet = yield b.receive(port=5)
        return (env.now, packet.payload)

    proc = env.process(receiver(env))
    a.send("b", payload="hello", size=100, port=5)
    env.run(proc)
    at, payload = proc.value
    assert payload == "hello"
    assert at >= 0.01  # at least the propagation delay


def test_delivery_includes_transmission_delay(env):
    # 1 Mbit/s; (1000+40)*8 bits = 8320 bits => 8.32 ms + 10 ms latency
    net, a, b = make_pair(env, latency=0.01, bandwidth=1e6)

    def receiver(env):
        packet = yield b.receive()
        return env.now

    proc = env.process(receiver(env))
    a.send("b", size=1000)
    env.run(proc)
    assert abs(proc.value - (0.01 + 8320 / 1e6)) < 1e-9


def test_multihop_latency_accumulates(env):
    topo = line(env, 4, latency=0.01, bandwidth=1e9)
    net = Network(env, topo)
    src, dst = net.host("n0"), net.host("n3")

    def receiver(env):
        packet = yield dst.receive()
        return (env.now, packet.hops)

    proc = env.process(receiver(env))
    src.send("n3", size=10)
    env.run(proc)
    at, hops = proc.value
    assert hops == 3
    assert at >= 0.03


def test_port_demultiplexing(env):
    net, a, b = make_pair(env)
    got = []

    def receiver(env, port):
        packet = yield b.receive(port=port)
        got.append((port, packet.payload))

    env.process(receiver(env, 1))
    env.process(receiver(env, 2))
    a.send("b", payload="one", port=1)
    a.send("b", payload="two", port=2)
    env.run()
    assert sorted(got) == [(1, "one"), (2, "two")]


def test_push_handler_delivery(env):
    net, a, b = make_pair(env)
    got = []
    b.on_packet(7, lambda packet: got.append(packet.payload))
    a.send("b", payload="pushed", port=7)
    env.run()
    assert got == ["pushed"]


def test_lossy_link_drops(env):
    net, a, b = make_pair(env, loss=0.999999)
    drops = []
    net.on_drop = lambda packet, reason: drops.append(reason)
    a.send("b", size=10)
    env.run()
    assert drops == ["loss"]
    assert net.counters["dropped:loss"] == 1


def test_no_route_drop(env):
    topo = Topology(env)
    topo.add_node("a")
    topo.add_node("b")
    net = Network(env, topo)
    a = net.host("a")
    net.host("b")
    a.send("b")
    env.run()
    assert net.counters["dropped:no-route"] == 1


def test_no_host_drop(env):
    topo = Topology(env)
    topo.add_link("a", "b")
    net = Network(env, topo)
    a = net.host("a")
    a.send("b")  # b never attached as a host
    env.run()
    assert net.counters["dropped:no-host"] == 1


def test_drop_stats_attributes_loss_and_partition(env):
    # Bernoulli loss on an up link is attributed to "loss"...
    net, a, b = make_pair(env, loss=0.999999)
    a.send("b", size=10)
    env.run()
    assert net.drop_stats() == {"loss": 1}
    # ...while a downed link (partition, routes not yet recomputed) is
    # attributed to "link-down", not conflated with random loss.
    net2, a2, b2 = make_pair(env)
    a2.send("b", size=10)   # warm the route table while the link is up
    env.run()
    net2.topology.link_between("a", "b").set_up(False)
    a2.send("b", size=10)
    env.run()
    assert net2.drop_stats() == {"link-down": 1}
    assert net2.counters["dropped:link-down"] == 1
    # Once routing notices the partition, the drop becomes "no-route".
    net2.topology.invalidate_routes()
    a2.send("b", size=10)
    env.run()
    assert net2.drop_stats() == {"link-down": 1, "no-route": 1}


def test_drops_counted_in_metrics_registry(env):
    metrics = env.metrics
    net, a, b = make_pair(env, loss=0.999999)
    a.send("b", size=10)
    env.run()
    assert metrics.counter("net.drops", reason="loss").value == 1
    assert metrics.counters("net.drops") == {"net.drops{reason=loss}": 1}


def test_counters_and_latency_tally(env):
    net, a, b = make_pair(env)

    def receiver(env):
        for _ in range(3):
            yield b.receive()

    proc = env.process(receiver(env))
    for _ in range(3):
        a.send("b", size=10)
    env.run(proc)
    assert net.counters["sent"] == 3
    assert net.counters["delivered"] == 3
    assert net.delivery_latency.count == 3


def test_link_stats_accumulate(env):
    net, a, b = make_pair(env)

    def receiver(env):
        yield b.receive()

    proc = env.process(receiver(env))
    a.send("b", size=60)
    env.run(proc)
    link = net.topology.link_between("a", "b")
    assert link.stats.packets == 1
    assert link.stats.bytes == 60 + HEADER_BYTES
    assert net.total_link_bytes() == 60 + HEADER_BYTES


def test_transmission_serialises_on_shared_link(env):
    # Two packets of 1000B at 1 Mb/s: the second waits for the first.
    net, a, b = make_pair(env, latency=0.0, bandwidth=1e6)
    arrivals = []

    def receiver(env):
        for _ in range(2):
            yield b.receive()
            arrivals.append(env.now)

    proc = env.process(receiver(env))
    a.send("b", size=1000)
    a.send("b", size=1000)
    env.run(proc)
    tx = 8320 / 1e6
    assert abs(arrivals[0] - tx) < 1e-9
    assert abs(arrivals[1] - 2 * tx) < 1e-9


def test_sent_received_counts(env):
    net, a, b = make_pair(env)

    def receiver(env):
        yield b.receive()

    proc = env.process(receiver(env))
    a.send("b")
    env.run(proc)
    assert a.sent == 1
    assert b.received == 1
