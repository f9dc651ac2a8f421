"""A number is kept once: every view of the network's books agrees.

A flight writes each fact to one book (``Host.sent``, the network's
``_delivered`` and ``_drops``, ``link.stats.bytes``, the
``delivery_latency`` tally); ``Network.counters``, ``drop_stats()`` and
the registry's ``net.*`` instruments are worked out from those books on
read.  Below, a per-packet reference kept by the test itself — one list
of every packet sent, what the handlers and the drop hook saw — is held
equal to every such view, at every read, whatever the reads' order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.net.topology import line
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment

HOSTS = ("n0", "n1", "n2")      # n3 is a node with no host: "no-host"
NODES = HOSTS + ("n3",)
LOSSY = ("n1", "n2")
FLAPPED = ("n0", "n1")


class _World:
    """A lossy four-node line, and the slow obvious count beside it."""

    def __init__(self, seed: int) -> None:
        self.env = env = Environment()
        self.topology = line(env, length=len(NODES), seed=seed)
        self.topology.link_between(*LOSSY).loss = 0.4
        self.network = Network(env, self.topology)
        self.packets = []       # every packet sent, in order
        self.delivered = []     # (dst, latency) per handler call
        self.dropped = []       # (link label or None, reason) per drop
        for name in HOSTS:
            self.network.host(name).on_packet(0, self._on_packet)
        self.network.on_drop = self._on_drop

    def _on_packet(self, packet) -> None:
        self.delivered.append(
            (packet.dst, self.env.now - packet.created_at))

    def _on_drop(self, packet, reason: str) -> None:
        link = None
        if reason not in ("no-route", "no-host"):
            link = self._path(packet)[packet.hops]
        self.dropped.append((link, reason))

    @staticmethod
    def _path(packet):
        """The labels of the line's links from src to dst, in order."""
        a, b = NODES.index(packet.src), NODES.index(packet.dst)
        step = 1 if b > a else -1
        return ["n{}<->n{}".format(min(i, i + step), max(i, i + step))
                for i in range(a, b, step)]

    def send(self, src: str, dst: str, size: int, delay) -> None:
        def send():
            self.packets.append(
                self.network.host(src).send(dst, size=size))

        def later(env):
            yield env.timeout(delay)
            send()      # in-run: the flight starts inside send()

        if delay is None:
            send()      # setup-time: the flight starts in the next run
        else:
            self.env.process(later(self.env))

    # -- the reference views ------------------------------------------------

    def counts(self):
        """What ``registry.counters()`` must read: no zero, nothing else."""
        counts = {}

        def bump(key, by=1):
            counts[key] = counts.get(key, 0) + by

        for packet in self.packets:
            bump("net.sent")
            bump("net.node.sent{{node={}}}".format(packet.src))
            for label in self._path(packet)[:packet.hops]:
                bump("net.bytes{{link={}}}".format(label), packet.wire_size)
        for dst, _ in self.delivered:
            bump("net.delivered")
            bump("net.node.delivered{{node={}}}".format(dst))
        for link, reason in self.dropped:
            bump("net.drops{{reason={}}}".format(reason))
            if link is not None:
                bump("net.link.drops{{link={},reason={}}}".format(
                    link, reason))
        return counts

    def drop_stats(self):
        stats = {}
        for _, reason in self.dropped:
            stats[reason] = stats.get(reason, 0) + 1
        return stats

    def check(self, view: str, registry: MetricsRegistry) -> None:
        network = self.network
        latencies = [latency for _, latency in self.delivered]
        if view == "registry.counters":
            assert registry.counters() == self.counts()
        elif view == "registry.snapshot":
            assert registry.snapshot()["counters"] == self.counts()
        elif view == "registry.totals":
            assert registry.counter_total("net.sent") \
                == registry.counter_total("net.node.sent") \
                == network.counters["sent"] == len(self.packets)
            assert registry.counter_total("net.delivered") \
                == registry.counter_total("net.node.delivered") \
                == network.counters["delivered"] == len(self.delivered)
            assert registry.counter_total("net.drops") \
                == network.counters["dropped"] == len(self.dropped)
        elif view == "registry.latency":
            recorded = dict(registry.histogram_items()).get(
                "net.delivery_latency")
            assert (recorded.values if recorded else []) == latencies
        elif view == "network.counters":
            expected = {"sent": len(self.packets),
                        "delivered": len(self.delivered),
                        "dropped": len(self.dropped)}
            expected.update(("dropped:" + reason, count)
                            for reason, count in self.drop_stats().items())
            assert network.counters.as_dict() == {
                key: count for key, count in expected.items() if count}
        elif view == "network.drop_stats":
            assert network.drop_stats() == self.drop_stats()
        elif view == "network.latency":
            assert network.delivery_latency.values == latencies
        else:
            assert view == "network.bytes"
            assert network.total_link_bytes() == sum(
                packet.wire_size * packet.hops for packet in self.packets)


VIEWS = ("registry.counters", "registry.snapshot", "registry.totals",
         "registry.latency", "network.counters", "network.drop_stats",
         "network.latency", "network.bytes")

_sends = st.tuples(
    st.just("send"), st.sampled_from(HOSTS), st.sampled_from(NODES),
    st.integers(0, 1500), st.none() | st.floats(0.0, 0.02)
).filter(lambda op: op[1] != op[2])
_ops = st.one_of(
    _sends,
    st.tuples(st.just("run"), st.floats(0.0, 0.03)),
    st.tuples(st.just("flap"), st.booleans()),
    st.tuples(st.just("reroute")),
    st.tuples(st.just("read"), st.permutations(VIEWS).flatmap(
        lambda views: st.integers(1, len(views)).map(
            lambda n: views[:n]))))


@settings(max_examples=300)
@given(st.integers(0, 2 ** 16), st.lists(_ops, max_size=60))
def test_every_derived_view_equals_the_per_packet_count(seed, ops):
    registry = MetricsRegistry()
    with use_metrics(registry):
        world = _World(seed)
        for op in ops:
            if op[0] == "send":
                world.send(*op[1:])
            elif op[0] == "run":
                world.env.run(until=world.env.now + op[1])
            elif op[0] == "flap":
                # Routes stay warm: a packet meets the link down.
                world.topology.link_between(*FLAPPED).set_up(op[1])
            elif op[0] == "reroute":
                world.topology.invalidate_routes()
            else:
                for view in op[1]:
                    world.check(view, registry)
        world.env.run()
        for view in VIEWS:
            world.check(view, registry)
    assert len(world.delivered) + len(world.dropped) == len(world.packets)


def test_a_live_network_never_goes_dark_in_the_registry_it_bound():
    """Shown at the parent: after ``registry.reset()`` the network's
    cells still pointed at instruments the registry had forgotten, so
    ``net.sent`` read 0 after two more deliveries and, once
    ``network.counters`` had been read, ``net.node.sent`` showed 2 beside
    a ``net.sent`` of 0.  ``reset()`` is gone (a run gets a fresh
    registry); what remains of the reproducer is that the network keeps
    recording into the registry it bound (its environment's), and the
    unlabelled, labelled and network-side totals agree at every read, in
    that order."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        env = Environment()
    network = Network(env, line(env, length=2, seed=11))
    network.host("n1")
    sender = network.host("n0")
    sender.send("n1", size=64)
    env.run()
    assert registry.counter_total("net.sent") == 1
    for sent in (3, 5):
        sender.send("n1", size=64)
        sender.send("n1", size=64)
        env.run()
        assert registry.counter_total("net.sent") == sent
        assert registry.snapshot()["counters"]["net.delivered"] == sent
        assert network.counters["sent"] == sent
        assert registry.counter("net.node.sent", node="n0").value == sent
        assert registry.counter("net.sent").value == sent
