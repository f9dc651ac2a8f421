"""Failure injection across the stack: crashes, partitions, rollbacks."""

import pytest

from repro.errors import PlacementError, TransportError
from repro.groups import MonitoredMembership, ProcessGroup
from repro.net import Network, ReliableChannel, Topology, lan
from repro.node import ODPRuntime
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def test_partition_removes_member_then_rejoin(env):
    """A partitioned member is suspected, removed, and can rejoin."""
    topo = lan(env, hosts=4)
    net = Network(env, topo)
    group = ProcessGroup(net, "g", ordering="fifo")
    for i in range(4):
        group.join("host{}".format(i))
    MonitoredMembership(group, interval=0.5, suspect_after=2.0)

    def partition(env):
        yield env.timeout(3.0)
        link = topo.link_between("host3", "switch")
        link.set_up(False)
        topo.invalidate_routes()

    env.process(partition(env))
    env.run(until=10.0)
    assert "host3" not in group.view
    assert len(group.view) == 3

    # The partition heals; the member rejoins as a fresh endpoint.
    topo.link_between("host3", "switch").set_up(True)
    topo.invalidate_routes()
    group.join("host3")
    assert "host3" in group.view
    group.endpoint("host0").broadcast("welcome-back")
    env.run(until=12.0)
    assert [m.payload for m in
            group.endpoint("host3").delivered_log] == ["welcome-back"]


def test_migration_to_unreachable_node_rolls_back(env):
    """A failed migration leaves the object installed and usable."""
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.001)
    link_c = topo.add_link("a", "c", latency=0.001)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="a")
    for node in ("a", "b", "c"):
        runtime.nucleus(node)
    nucleus = runtime.nuclei["a"]
    capsule = nucleus.create_capsule()
    obj = nucleus.create_object(capsule, "doc", state={"n": 1})
    obj.operation("read", lambda caller, state, args: state["n"])
    link_c.set_up(False)
    topo.invalidate_routes()
    outcome = {}

    def root(env):
        try:
            yield nucleus.migrate_cluster(obj.cluster, "c")
            outcome["migrated"] = True
        except PlacementError:
            outcome["migrated"] = False
        # The object must still answer locally after the rollback.
        value = yield runtime.nuclei["b"].invoke(obj.oid, "read")
        outcome["value"] = value

    proc = env.process(root(env))
    env.run(proc)
    assert outcome == {"migrated": False, "value": 1}
    assert runtime.locate(obj.oid) == "a"
    assert nucleus.find_object(obj.oid) is not None


def test_reliable_channel_through_flapping_link(env):
    """Messages survive a link that goes down and comes back."""
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.005)
    net = Network(env, topo)
    sender = ReliableChannel(net.host("a"), ack_timeout=0.1,
                             max_retries=60)
    receiver = ReliableChannel(net.host("b"), ack_timeout=0.1,
                               max_retries=60)
    got = []

    def consumer(env):
        for _ in range(5):
            packet = yield receiver.receive()
            got.append(packet.payload)

    def producer(env):
        for i in range(5):
            yield sender.send("b", payload=i, size=50)
            yield env.timeout(0.3)  # the link flaps between sends

    def flapper(env):
        yield env.timeout(0.05)
        for _ in range(3):
            link.set_up(False)
            yield env.timeout(0.4)
            link.set_up(True)
            yield env.timeout(0.25)

    consume = env.process(consumer(env))
    env.process(producer(env))
    env.process(flapper(env))
    env.run(consume)
    assert got == [0, 1, 2, 3, 4]
    assert sender.retransmissions > 0


def test_reliable_channel_gives_up_on_dead_host(env):
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.005)
    net = Network(env, topo)
    sender = ReliableChannel(net.host("a"), ack_timeout=0.05,
                             max_retries=3)
    # b never attaches a channel: data arrives nowhere, acks never come.
    link.set_up(False)
    failed = []

    def root(env):
        try:
            yield sender.send("b", payload="lost")
        except TransportError:
            failed.append(True)

    proc = env.process(root(env))
    env.run(proc)
    assert failed == [True]


def test_qos_capacity_recovered_after_violated_contract(env):
    """A violated, released contract frees its reservation."""
    from repro.net import dumbbell
    from repro.qos import QoSBroker, QoSParameters

    topo = dumbbell(env, left=2, right=2, bottleneck_bandwidth=1e6)
    net = Network(env, topo)
    broker = QoSBroker(net)
    first = broker.negotiate("left0", "right0",
                             QoSParameters(throughput=7e5, latency=0.1))
    first.mark_violated()
    broker.release(first)
    # Full capacity is back for the next applicant.
    second = broker.negotiate("left1", "right1",
                              QoSParameters(throughput=7e5, latency=0.1))
    assert second.agreed.throughput == 7e5


def test_heartbeats_false_suspicion_recovers(env):
    """Transient silence (a slow link) must not permanently evict."""
    from repro.groups import HeartbeatMonitor, HeartbeatSender

    topo = lan(env, hosts=2)
    net = Network(env, topo)
    monitor = HeartbeatMonitor(net.host("host0"), ["host1"],
                               suspect_after=1.0, check_interval=0.2)
    link = topo.link_between("host1", "switch")

    def slow_patch(env):
        yield env.timeout(1.0)
        link.set_up(False)   # heartbeats silently dropped
        topo.invalidate_routes()
        yield env.timeout(2.0)
        link.set_up(True)
        topo.invalidate_routes()

    HeartbeatSender(net.host("host1"), "host0", interval=0.2)
    env.process(slow_patch(env))
    env.run(until=2.5)
    assert monitor.is_suspected("host1")
    env.run(until=6.0)
    assert not monitor.is_suspected("host1")


def test_ot_document_with_competing_bursts_converges(env):
    """Stress: heavy concurrent editing from every site converges."""
    from repro import CooperativePlatform

    platform = CooperativePlatform(sites=4, hosts_per_site=1, seed=99)
    members = platform.host_names()
    session = platform.create_session("stress", members)
    doc = session.shared_document("doc", initial="0123456789")
    rng = RandomStreams(100).stream("stress")

    def burst(env, member):
        client = doc.client(member)
        for _ in range(30):
            yield env.timeout(rng.uniform(0.0005, 0.02))
            if len(client.text) > 2 and rng.random() < 0.4:
                client.delete(rng.randrange(len(client.text)))
            else:
                client.insert(rng.randrange(len(client.text) + 1), "x")

    for member in members:
        platform.env.process(burst(platform.env, member))
    platform.run()
    assert doc.converged
    texts = set(doc.texts().values())
    assert len(texts) == 1
