"""The network: hosts, packet delivery and per-hop simulation.

A :class:`Network` wraps a :class:`~repro.net.topology.Topology` and moves
:class:`~repro.net.packet.Packet` objects between :class:`Host` objects.
Each packet in flight is one :class:`_Carrier`, driven by event callbacks
rather than a process: per link it serialises on the directional channel
(transmission delay), then waits the propagation delay, and may be
dropped by the link's loss model.

Two events are queued per hop, and nothing else per packet: the start
of an in-run send, each channel grant (fused with its transmission wait
— see :class:`~repro.sim.resources.Request`), the accepted put on inbox
delivery and the flight's end queue nothing.  RNG draw order, hop, drop
and delivery times match the one-event-per-step carry this replaced:
``tests/net/test_carry.py`` holds the carrier to references pinned from
it and to an independent generator model.

A number is kept once.  A flight writes each fact to one book, owned by
whatever the fact is about — ``Host.sent`` per source, the network's
``_delivered`` per destination, ``link.stats.bytes`` per link,
``_drops`` per (link, reason), the ``delivery_latency`` tally — and
:attr:`Network.counters`, :meth:`Network.drop_stats` and the registry's
``net.*`` instruments are worked out from those books when somebody
reads (:meth:`Network._flush`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import NetworkError, RoutingError
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.obs.metrics import LabelKey, MetricsRegistry, get_metrics
from repro.obs.propagation import TRACE_HEADER
from repro.obs.span import NOOP_SPAN
from repro.obs.tracer import get_tracer
from repro.sim import Counter, Environment, Store, Tally
from repro.sim.environment import _NORMAL_BASE
from repro.sim.events import URGENT
from repro.sim.resources import PriorityRequest

#: Default packet priority; QoS-reserved flows use lower (better) values.
BEST_EFFORT_PRIORITY = 10
RESERVED_PRIORITY = 0

#: The registry instruments a network's books back (its flush hook's names).
_INSTRUMENTS = ("net.sent", "net.delivered", "net.delivery_latency",
                "net.node.sent", "net.node.delivered", "net.bytes",
                "net.drops", "net.link.drops")


class Host:
    """A network endpoint attached to a topology node.

    Incoming packets are demultiplexed by port into per-port inboxes;
    a process receives with ``yield host.receive(port)``.  Handlers may be
    registered instead for push-style delivery.
    """

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.env = network.env
        self.name = name
        self._inboxes: Dict[int, Store] = {}
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        #: Datagrams sent: the book behind ``net.node.sent`` / ``net.sent``.
        self.sent = 0
        #: Packets handed over by anything that delivers here — this
        #: network's flights (``net.node.delivered``) or a multicast tree.
        self.received = 0

    def inbox(self, port: int = 0) -> Store:
        """The inbox store for ``port`` (created on first use)."""
        if port not in self._inboxes:
            self._inboxes[port] = Store(self.env)
        return self._inboxes[port]

    def send(self, dst: str, payload: Any = None, size: int = 0,
             port: int = 0, headers: Optional[Dict[str, Any]] = None) -> Packet:
        """Send a datagram (fire-and-forget); returns the packet."""
        packet = Packet(self.name, dst, payload, size, port,
                        self.env._now, headers)
        self.sent += 1
        self.network.transmit(packet)
        return packet

    def receive(self, port: int = 0):
        """An event yielding the next packet on ``port``."""
        return self.inbox(port).get()

    def on_packet(self, port: int,
                  handler: Callable[[Packet], None]) -> None:
        """Register a push handler for ``port`` (replaces inbox delivery)."""
        self._handlers[port] = handler

    def _deliver(self, packet: Packet) -> None:
        self.received += 1
        packet.delivered_at = self.env.now
        handler = self._handlers.get(packet.port)
        if handler is not None:
            handler(packet)
        else:
            # The put event is discarded here, so Store.put_fast never
            # queues it.
            self.inbox(packet.port).put_fast(packet)

    def __repr__(self) -> str:
        return "<Host {}>".format(self.name)


class _Carrier(PriorityRequest):
    """One packet in flight: claim, queued event and stand-in process.

    One object plays three roles.  It is each hop's channel claim, held
    in ``channel.users`` or queued through ``channel._do_request``; it
    is the event pushed for transmission-complete and again for
    propagation-complete — the run loop hands a callback the event, so
    ``callbacks`` points at shared tuples of the plain functions below
    and they receive the carrier as ``self``; and it is
    ``env.active_process`` around the foreign code a flight ends in
    (:meth:`_finish`).

    The link physics (transmission delay, loss draw, propagation delay)
    is inlined from link.py, which carries the matching notice: the
    logic — including when the shared RNG is drawn, which replay digests
    depend on — must mirror the Link methods exactly.
    """

    # __weakref__: tests watch a carrier die at the end of its flight.
    __slots__ = ("network", "packet", "transit", "tracer", "flight",
                 "links", "link", "node", "wire_size", "hop", "__weakref__")

    #: ``env.active_process.span`` (where locks.py parents its spans):
    #: a carrier is not a named actor.
    span = None

    def __init__(self, network: "Network", packet: Packet) -> None:
        # Event.__init__ inlined (one carrier per packet); a carrier
        # fires many times, so callbacks is set at each push instead.
        self.env = network.env
        self.callbacks = None
        self._value = None
        self._exception = None
        self._ok = None
        self.defused = False
        self.network = network
        self.packet = packet

    def _begin(self) -> None:  # repro: fast-path (RPR204)
        """Resolve tracer and route, then claim the first hop."""
        network = self.network
        packet = self.packet
        # Per packet: a tracer may be installed after the network is built.
        tracer = get_tracer()
        src = packet.src
        self.wire_size = wire_size = packet.wire_size
        # Transit spans parent under whatever context the sender stamped
        # into the packet headers (e.g. an rpc.call span), so one trace
        # tree covers the request end to end; the tracer reads the
        # header dict in place.
        if tracer.enabled:
            span = tracer.start_span(
                "net.transmit", at=self.env.now,
                parent=packet.headers.get(TRACE_HEADER) or None, src=src,
                dst=packet.dst, port=packet.port, bytes=wire_size)
        else:
            span = NOOP_SPAN
        self.transit = span
        try:
            self.links = iter(network.topology.path(src, packet.dst))
        except RoutingError:
            self._finish(network._drop, packet, "no-route", span)
            return
        self.node = src
        self.priority = packet.headers.get("priority", BEST_EFFORT_PRIORITY)
        # Per-hop spans only exist for traces that are actually being
        # retained: with the tracer disabled, or the trace sampled out at
        # its head, every hop of every packet would otherwise still pay
        # the span + label allocation — the dominant trace cost at scale.
        self.tracer = tracer if span.is_recording else None
        flight = self.env._flight
        if flight is not None and not flight.journal_net:
            flight = None
        self.flight = flight
        self._claim()

    def _claim(self) -> None:  # repro: fast-path (RPR204)
        """Claim the next hop's channel; past the last hop, deliver."""
        link = self.link = next(self.links, None)
        if link is None:
            self._deliver()
            return
        env = self.env
        now = env._now
        node = self.node
        self.hop = self.tracer.start_hop(
            self.transit, now, link.label, node, self.wire_size) \
            if self.tracer is not None else None
        # Claim+tx fusion: the claim carries the transmission delay, so
        # it fires once, at tx-complete (see Resource._grant).
        delay = (self.wire_size * 8.0) / link.bandwidth
        channel = self.resource = link._channels[node]
        self.callbacks = _ON_TX
        if channel.users:
            # Contended: queue like any PriorityRequest — the releasing
            # holder's _grant pushes this carrier — with _ok reset so
            # the double-trigger guard there sees an untriggered claim.
            self._ok = None
            self.requested_at = self.time = now
            self.seq = next(channel._ticket)
            self.grant_delay = delay
            channel._do_request(self)
        else:
            # Uncontended: Resource._grant in place.  What only a queued
            # claim needs (requested_at, time, seq, grant_delay) stays
            # unset or stale — this one was never queued.
            self._ok = True
            self.usage_since = now
            channel.users.append(self)
            env._eid += 1
            env._push(now + delay, _NORMAL_BASE + env._eid, self)

    def _on_tx(self) -> None:  # repro: fast-path (RPR204)
        """Transmission complete: release the channel, draw loss, fly."""
        env = self.env
        link = self.link
        hop = self.hop
        if hop is not None:
            # usage_since marks the grant: where an unfused claim would
            # have resumed its holder and stamped tx-start.
            hop.tx_start = self.usage_since
        # Resource.release inlined: a carrier firing as a claim is in
        # users; only a non-empty wait queue needs the grant machinery.
        channel = self.resource
        channel.users.remove(self)
        if channel.queue:
            channel._grant_waiters()
        # Loss attribution mirrors Link.drops_packet: a downed link
        # drops without drawing the RNG; otherwise one draw decides,
        # and the drawn value splits baseline "loss" from fault-
        # injected "impairment" (draws landing in the _extra_loss
        # band) so drop_stats() tells the two apart.
        drop_reason = None
        if not link.up:
            drop_reason = "link-down"
        else:
            probability = link.loss + link._extra_loss
            if probability > 0:
                draw = link._rng.random()
                if draw < min(probability, 1.0):
                    drop_reason = "loss" if draw < link.loss \
                        else "impairment"
        if drop_reason is not None:
            link.stats.drops += 1
            if hop is not None:
                hop.status = "dropped"
                hop.end = env._now
            self._finish(self.network._drop, self.packet, drop_reason,
                         self.transit, link)
            return
        delay = link.latency * link._latency_scale
        if link.jitter > 0:
            delay += link._rng.uniform(0, link.jitter)
        self.callbacks = _ON_ARRIVE
        env._eid += 1
        env._push(env._now + delay, _NORMAL_BASE + env._eid, self)

    def _on_arrive(self) -> None:  # repro: fast-path (RPR204)
        """Propagation complete: book the hop, go on to the next."""
        link = self.link
        packet = self.packet
        wire_size = self.wire_size
        stats = link.stats
        stats.packets += 1
        stats.bytes += wire_size
        packet.hops += 1
        node = self.node
        hop = self.hop
        if self.flight is not None:
            self.flight.record_hop(link.label, node, packet.src, packet.dst,
                                   packet.port, span=hop)
        self.node = link.b if node == link.a else link.a
        if hop is not None:
            hop.end = self.env._now
        self._claim()

    def _deliver(self) -> None:
        """Past the last hop: hand the packet to the destination host."""
        packet = self.packet
        dst = packet.dst
        network = self.network
        target = network.hosts.get(dst)
        if target is None:
            self._finish(network._drop, packet, "no-host", self.transit)
            return
        now = self.env._now
        delivered = network._delivered
        delivered[dst] = delivered.get(dst, 0) + 1
        network.delivery_latency.record(now - packet.created_at)
        self.transit.finish(at=now)
        self._finish(target._deliver, packet)

    def _finish(self, foreign: Callable[..., None], *args: Any) -> None:
        """End the flight in ``foreign``, run as the active process.

        ``Host._deliver`` and ``Network._drop`` call code the network
        does not own (a push handler, the ``on_drop`` hook): it must see
        an active process, so that a send it makes starts synchronously,
        and what it raises goes straight to whoever fired the carrier.
        """
        env = self.env
        outer = env._active_process
        env._active_process = self
        try:
            foreign(*args)
        finally:
            env._active_process = outer
            # Resource._grant left ``_value = self``; without the cycle
            # packet, route and spans die here, by refcount.
            self._value = None


_BEGIN = (_Carrier._begin,)
_ON_TX = (_Carrier._on_tx,)
_ON_ARRIVE = (_Carrier._on_arrive,)


class Network:
    """Moves packets across a topology between registered hosts."""

    def __init__(self, env: Environment, topology: Topology) -> None:
        if topology.env is not env:
            raise NetworkError("topology belongs to a different environment")
        self.env = env
        self.topology = topology
        self.hosts: Dict[str, Host] = {}
        #: Optional hook called with (packet, reason) on every drop.
        self.on_drop: Optional[Callable[[Packet, str], None]] = None
        #: End-to-end latency of every delivery, in delivery order.
        self.delivery_latency = Tally("delivery-latency")
        #: Destination node -> packets delivered there.
        self._delivered: Dict[str, int] = {}
        #: (link label or None, reason) -> packets dropped; ``None`` is a
        #: drop no link made (``no-route``, ``no-host``).
        self._drops: Dict[Tuple[Optional[str], str], int] = {}
        # The ambient registry at the first send; from then on the
        # network's, whatever is installed later.
        self._registry: Optional[MetricsRegistry] = None
        #: What :meth:`_flush` has already given the registry.
        self._folded: Dict[LabelKey, int] = {}
        self._latencies_folded = 0

    @property
    def counters(self) -> Counter:
        """``sent``, ``delivered``, ``dropped`` and ``dropped:<reason>``
        (a count that is zero is absent and reads as 0)."""
        drops = self.drop_stats()
        totals = {"sent": sum(host.sent for host in self.hosts.values()),
                  "delivered": sum(self._delivered.values()),
                  "dropped": sum(drops.values())}
        totals.update(("dropped:" + reason, count)
                      for reason, count in drops.items())
        counts = Counter()
        for key, count in totals.items():
            if count:
                counts.incr(key, count)
        return counts

    def _flush(self) -> None:
        """Give the bound registry what the books gained since last time.

        The registry's flush hook: it runs before every read of a
        ``net.*`` instrument, so readers see fresh values while a flight
        pays no instrument call.  Deltas go through the keyed factories
        in sorted order; a count that has not moved creates nothing.
        """
        registry = self._registry
        books: Dict[LabelKey, int] = {
            ("net.sent", ()): sum(host.sent for host in self.hosts.values()),
            ("net.delivered", ()): sum(self._delivered.values())}
        for node, host in self.hosts.items():
            books["net.node.sent", (("node", node),)] = host.sent
        for node, count in self._delivered.items():
            books["net.node.delivered", (("node", node),)] = count
        for link in self.topology.links():
            books["net.bytes", (("link", link.label),)] = link.stats.bytes
        for reason, count in self.drop_stats().items():
            books["net.drops", (("reason", reason),)] = count
        for (label, reason), count in self._drops.items():
            if label is not None:
                books["net.link.drops",
                      (("link", label), ("reason", reason))] = count
        folded = self._folded
        for key in sorted(books):
            delta = books[key] - folded.get(key, 0)
            if delta:
                folded[key] = books[key]
                registry.counter(key[0], **dict(key[1])).add(delta)
        values = self.delivery_latency.values
        if len(values) > self._latencies_folded:
            record = registry.histogram("net.delivery_latency").record
            for value in values[self._latencies_folded:]:
                record(value)
            self._latencies_folded = len(values)

    def host(self, name: str) -> Host:
        """Create (or fetch) the host attached to topology node ``name``."""
        if name not in self.topology._adjacency:
            raise NetworkError("no topology node named {}".format(name))
        if name not in self.hosts:
            self.hosts[name] = Host(self, name)
        return self.hosts[name]

    def transmit(self, packet: Packet) -> None:
        """Launch ``packet``'s carrier."""
        if self._registry is None:
            self._registry = get_metrics()
            self._registry.add_flush_hook(self._flush, _INSTRUMENTS)
        env = self.env
        carrier = _Carrier(self, packet)
        if env._active_process is not None and packet.src != packet.dst:
            # Synchronous start: inside the run loop (the storm hot
            # path) an URGENT start event at this instant would pop
            # before any pending NORMAL event anyway, so the flight
            # begins right here.
            carrier._begin()
        else:
            # Setup-time sends (no active process) keep the queued
            # start, so code that mutates links between send() and
            # run() observes no change.  So does a packet to its own
            # host: it has no hop to wait on, and begun here it would
            # run the receiver's handler inside the sender's send().
            carrier.callbacks = _BEGIN
            env.schedule(carrier, URGENT)

    def _drop(self, packet: Packet, reason: str, span, link=None) -> None:
        # Per-link, per-reason attribution: the "drops" column in the
        # dashboard's link table rolls this up.
        key = (link.label if link is not None else None, reason)
        self._drops[key] = self._drops.get(key, 0) + 1
        flight = self.env._flight
        if flight is not None and flight.journal_net:
            flight.record_drop(reason, key[0], packet.src, packet.dst,
                               packet.port, span=span)
        span.set_status("dropped:" + reason)
        span.set_attribute("drop_reason", reason)
        span.finish(at=self.env.now)
        if self.on_drop is not None:
            self.on_drop(packet, reason)

    def drop_stats(self) -> Dict[str, int]:
        """Drops per reason (``loss``, ``impairment``, ``link-down``,
        ``no-route``, ``no-host``) since the network was created.

        ``loss`` is the link's configured baseline; ``impairment``
        attributes drops whose Bernoulli draw landed in the extra
        probability a fault injection (loss burst) added on top.
        """
        stats: Dict[str, int] = {}
        for (_, reason), count in self._drops.items():
            stats[reason] = stats.get(reason, 0) + count
        return stats

    def total_link_bytes(self) -> int:
        """Bytes carried across every link (the E9 cost metric)."""
        return sum(link.stats.bytes for link in self.topology.links())

    def __repr__(self) -> str:
        return "<Network hosts={} nodes={}>".format(
            len(self.hosts), len(self.topology.nodes))
