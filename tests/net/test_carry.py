"""The packet carry's elisions must be invisible except in wall time.

The carry elides the carrier's Initialize, the uncontended claim's
grant, the delivered put and the detached end event — each *virtually
accounted* so counters, metrics, digests and drop books match a carry
that queues every one of them.  That carry (and the binary-heap
scheduler it ran on) is deleted; ``tests/analysis/carry_flight_pins.json``
holds what it produced at the last commit that had it, and the storms
below must keep reproducing those pins bit for bit.
"""

import hashlib
import json
import os

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.net.network import Network
from repro.net.topology import lan, line, wan
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment

_PINS = os.path.join(os.path.dirname(__file__), os.pardir, "analysis",
                     "carry_flight_pins.json")


def _pinned(name):
    with open(_PINS, encoding="utf-8") as handle:
        return json.load(handle)["storms"][name]


def _sha(result):
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def fresh_metrics():
    with use_metrics(MetricsRegistry()):
        yield


def _storm(loss=0.0, schedule=None):
    """One deterministic WAN storm; returns comparable state."""
    env = Environment()
    topo = wan(env, sites=3, hosts_per_site=2, site_latency=0.004,
               loss=loss, seed=7)
    network = Network(env, topo)
    if schedule is not None:
        FaultInjector(env, network, schedule)
    names = ["site{}.host{}".format(i, j)
             for i in range(3) for j in range(2)]
    endpoints = [network.host(name) for name in names]

    def sender(env, host, peer):
        for i in range(40):
            yield env.timeout(0.0005)
            host.send(peer, payload=i, size=512)

    def receiver(env, host, seen):
        while True:
            packet = yield host.receive()
            seen.append((env.now, packet.src, packet.payload))

    seen = []
    for i, host in enumerate(endpoints):
        peer = names[(i + 3) % len(names)]
        env.process(sender(env, host, peer))
        env.process(receiver(env, host, seen))
    env.run(until=1.0)
    return {
        "seen": seen,
        "stats": env.stats(),
        "counters": dict(network.counters._counts),
        "latency_count": network.delivery_latency.count,
        "latency_mean": network.delivery_latency.mean,
        "drops": network.drop_stats(),
        "link_bytes": network.total_link_bytes(),
    }


def test_clean_storm_matches_pinned_reference():
    """Deliveries, latencies and the virtually-accounted event counters
    all sit inside the hashed result."""
    result = _storm()
    assert result["stats"]["events_processed"] == 3379
    assert _sha(result) == _pinned("clean")


def test_storm_under_loss_matches_pinned_reference():
    assert _sha(_storm(loss=0.05)) == _pinned("loss")


def test_storm_under_faults_matches_pinned_reference():
    schedule = (FaultSchedule()
                .link_down(0.010, "site0.router", "site1.router")
                .link_up(0.030, "site0.router", "site1.router")
                .loss_burst(0.040, extra_loss=0.5, duration=0.020,
                            links=[("site1.router", "site2.router")]))
    result = _storm(schedule=schedule)
    assert result["drops"], "fault storm produced no drops to compare"
    assert _sha(result) == _pinned("faults")


def _lan_chat():
    """Four LAN hosts, 25 datagrams each, run to completion."""
    env = Environment()
    topo = lan(env, hosts=4, seed=3)
    network = Network(env, topo)
    hosts = [network.host("host{}".format(i)) for i in range(4)]

    def chat(env, host, peer):
        for i in range(25):
            yield env.timeout(0.001)
            host.send(peer, payload=i, size=256)

    for i, host in enumerate(hosts):
        env.process(chat(env, host, "host{}".format((i + 1) % 4)))
    env.run()


def test_registry_reads_are_never_stale():
    """Celled metrics flush on every registry read path, into the same
    instruments a per-packet writer would have filled."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        _lan_chat()
        result = {
            "sent": registry.counter_total("net.sent"),
            "delivered": registry.counter_total("net.delivered"),
            "node_sent": registry.counter_total("net.node.sent",
                                                node="host0"),
            "bytes": registry.counter_total("net.bytes",
                                            link="host0<->switch"),
            "latency": registry.histogram_count("net.delivery_latency"),
            "snapshot": registry.snapshot(),
        }
    assert (result["sent"], result["delivered"], result["node_sent"],
            result["bytes"], result["latency"]) == (100, 100, 25, 14800, 100)
    assert _sha(result) == _pinned("lan-chat-metrics")


def test_cells_flush_to_their_own_registry_after_a_swap():
    """Packets sent under one registry land there even when the network
    has since rebound to another, and the network's own books see both."""
    first, second = MetricsRegistry(), MetricsRegistry()
    env = Environment()
    topo = line(env, length=2, seed=11)
    network = Network(env, topo)
    network.host("n1")
    sender = network.host("n0")
    with use_metrics(first):
        sender.send("n1", size=64)
        env.run()
    with use_metrics(second):
        sender.send("n1", size=64)
        sender.send("n1", size=64)
        env.run()
    assert network.counters["sent"] == 3
    assert network.delivery_latency.count == 3
    assert first.counter_total("net.delivered") == 1
    assert second.counter_total("net.delivered") == 2


def test_on_drop_hook_fires():
    env = Environment()
    topo = line(env, length=2, seed=11)
    topo.link_between("n0", "n1").loss = 1.0
    network = Network(env, topo)
    dropped = []
    network.on_drop = lambda packet, reason: dropped.append(
        (packet.payload, reason))
    network.host("n1")
    network.host("n0").send("n1", payload="doomed", size=64)
    env.run()
    assert dropped == [("doomed", "loss")]
    assert network.drop_stats() == {"loss": 1}


def test_setup_time_sends_start_inside_the_run():
    """transmit() outside any process (no active process) keeps the
    queued Initialize, so a link mutation between send() and run()
    affects the packet: the carry starts inside the run, not at send()."""
    env = Environment()
    topo = line(env, length=2, seed=5)
    network = Network(env, topo)
    network.host("n1")
    network.host("n0").send("n1", payload="early", size=64)
    assert env.stats()["queue_depth"] == 1
    topo.link_between("n0", "n1").loss = 1.0
    env.run()
    assert network.drop_stats() == {"loss": 1}
    # Initialize, fused grant (2) and the elided end event.
    assert env.stats()["events_scheduled"] == 4
    assert env.stats()["events_processed"] == 4


def test_in_run_sends_start_synchronously():
    """transmit() from inside a process primes the carrier on the spot:
    the channel is claimed before send() returns, and the elided
    Initialize is still counted."""
    env = Environment()
    topo = line(env, length=2, seed=5)
    network = Network(env, topo)
    network.host("n1")
    channel = topo.link_between("n0", "n1").channel("n0")
    claimed = []

    def sender(env):
        yield env.timeout(0.001)
        before = env.events_scheduled
        network.host("n0").send("n1", size=64)
        claimed.append((channel.count, env.events_scheduled - before))

    env.process(sender(env))
    env.run()
    # Initialize (elided) + fused grant (grant elided, tx queued).
    assert claimed == [(1, 3)]
    assert network.counters["delivered"] == 1
