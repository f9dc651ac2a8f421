"""The network: hosts, packet delivery and per-hop simulation.

A :class:`Network` wraps a :class:`~repro.net.topology.Topology` and moves
:class:`~repro.net.packet.Packet` objects between :class:`Host` objects.
Each packet in flight is one :class:`_Carrier`, driven by event callbacks
rather than a process: per link it serialises on the directional channel
(transmission delay), then waits the propagation delay, and may be
dropped by the link's loss model.

A hop over a link that is up and draws nothing (no loss, jitter or
fault loss) is one queued event, its arrival, and reads the link at its
claim, whether its channel is free or it is booked on the channel's
timeline (:class:`~repro.net.link.Channel`).  A hop over a link that
draws, or is down, also queues its tx-complete, and reads the link and
draws there.  Nothing else is queued per packet — not the start of an
in-run send, a claim, an inbox put or the flight's end — but the event
of a re-timed booking, once more.
``tests/net/test_carry.py`` holds the carrier to pinned storms and to
an independent generator model that states the same rule.

A number is kept once.  A flight writes each fact to one book, owned by
whatever the fact is about — ``Host.sent`` per source, the network's
``_delivered`` per destination, ``link.stats.bytes`` per link,
``_drops`` per (link, reason), the ``delivery_latency`` tally — and
:attr:`Network.counters`, :meth:`Network.drop_stats` and the registry's
``net.*`` instruments are worked out from those books when somebody
reads (:meth:`Network._flush`).

Tie-sensitive (docs/analysis.md "Tie-sensitive modules"): a send made
outside any process — at set-up, or a datagram to the sender's own
host — queues its start, so several made at one instant leave in the
kernel's tie order, not in call order, and where they share a first
hop their fates, their instants and the links' books follow that
order.  A send made inside the run starts on the spot, in call order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, RoutingError
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.obs.metrics import Counter, LabelKey, Tally
from repro.obs.propagation import TRACE_HEADER
from repro.obs.span import NOOP_SPAN
from repro.sim import Environment, Event, Store
from repro.sim.environment import _NORMAL_BASE
from repro.sim.events import URGENT

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
        #: The reliable channel on each port (a channel enters itself).
        self.channels: Dict[int, Any] = {}
        #: Datagrams sent: the book behind ``net.node.sent`` / ``net.sent``.
        self.sent = 0

    def inbox(self, port: int = 0) -> Store:
        """The inbox store for ``port`` (created on first use)."""
        if port not in self._inboxes:
            self._inboxes[port] = Store(self.env)
        return self._inboxes[port]

    def send(self, dst: str, payload: Any = None, size: int = 0,
             port: int = 0, headers: Optional[Dict[str, Any]] = None) -> Packet:
        """Send a datagram (fire-and-forget); returns the packet."""
        packet = Packet(self.name, dst, payload, size, port,
                        self.env.now, headers)
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
        packet.delivered_at = self.env.now
        handler = self._handlers.get(packet.port)
        if handler is not None:
            handler(packet)
        else:
            self.inbox(packet.port).put(packet)

    def __repr__(self) -> str:
        return "<Host {}>".format(self.name)


class _Carrier(Event):
    """One packet in flight: queued event, channel booking, stand-in.

    One object plays three roles.  It is the event pushed for each
    hop's arrival, and for its tx-complete on a link that draws — the
    run loop hands a callback the event, so ``callbacks`` points at
    shared tuples of the plain functions below and they receive the
    carrier as ``self``; it is the booking a taken channel keeps until
    the hop's first event (:class:`~repro.net.link.Channel`); and it is
    ``env.active_process`` around the foreign code a flight ends in
    (:meth:`_finish`).

    A multicast tree edge (:mod:`repro.net.multicast`) is a flight with
    its own route and end.  The loss draw and the jittered propagation
    delay are stated in :meth:`_on_tx` and nowhere else: replay digests
    depend on when a link's RNG is drawn, so a hop over a link that
    draws keeps its tx-complete event and draws there.
    """

    # __weakref__: tests watch a carrier die at the end of its flight.
    __slots__ = ("network", "packet", "transit", "tracer", "flight",
                 "links", "link", "node", "wire_size", "hop", "priority",
                 "channel", "tx", "start", "delay", "__weakref__")

    #: ``env.active_process.span`` (where locks.py parents its spans):
    #: a carrier is not a named actor.
    span = None

    def __init__(self, network: "Network", packet: Packet,
                 links=None) -> None:
        # Event.__init__ inlined (one carrier per packet); a carrier
        # fires many times, so callbacks is set at each push instead.
        self.env = network.env
        self.callbacks = None
        self._value = None
        self._exception = None
        self._ok = True
        self.defused = False
        self.network = network
        self.packet = packet
        #: A tree edge comes with its route; _begin looks up any other.
        self.links = links

    def _launch(self) -> None:
        """Begin the flight, now or at a queued start."""
        env = self.env
        packet = self.packet
        if env._active_process is not None and packet.src != packet.dst:
            # Synchronous start: inside the run loop (the storm hot
            # path) an URGENT start event at this instant would pop
            # before any pending NORMAL event anyway, so the flight
            # begins right here.
            self._begin()
        else:
            # Setup-time sends (no active process) keep the queued
            # start, so code that mutates links between send() and
            # run() observes no change.  So does a packet to its own
            # host: it has no hop to wait on, and begun here it would
            # run the receiver's handler inside the sender's send().
            self.callbacks = _BEGIN
            env.schedule(self, URGENT)

    def _begin(self) -> None:  # repro: fast-path (RPR204)
        """Resolve tracer and route, then claim the first hop."""
        network = self.network
        packet = self.packet
        tracer = self.env.tracer
        src = packet.src
        self.wire_size = wire_size = packet.wire_size
        # Transit spans parent under whatever context the sender stamped
        # into the packet headers (e.g. an rpc.call span), so one trace
        # tree covers the request end to end; the tracer reads the
        # header dict in place.
        if tracer.enabled:
            span = tracer.start_transit(
                self.env.now, packet.headers.get(TRACE_HEADER) or None, src,
                packet.dst, packet.port, wire_size)
        else:
            span = NOOP_SPAN
        self.transit = span
        if self.links is None:
            try:
                self.links = iter(network.topology.path(src, packet.dst))
            except RoutingError:
                self._finish(network._drop, packet, "no-route", span)
                return
            self.node = src
        self.priority = packet.headers.get("priority", BEST_EFFORT_PRIORITY)
        # Hops are recorded only for traces that are actually being
        # retained: each is a row of the tracer's that the carrier
        # stamps by number, and its journal record names the transit.
        self.tracer = tracer if span.is_recording else None
        self.flight = self.env._flight
        self._claim()

    def _claim(self) -> None:  # repro: fast-path (RPR204)
        """Claim the next hop's channel; past the last hop, deliver."""
        link = self.link = next(self.links, None)
        if link is None:
            self._deliver()
            return
        env = self.env
        now = env.now
        if self.tracer is not None:
            self.hop = self.tracer.open_hop(self.transit, link, self.node,
                                            now)
        tx = link.transmission_delay(self.wire_size)
        channel = link._channels[self.node]
        # Over a link that is up and draws nothing a hop is one event,
        # its arrival, and the link is read at the claim; else (None) it
        # keeps its tx-complete and reads the link there.
        delay = link.latency * link._latency_scale if link.up and not (
            link.loss or link.jitter or link._extra_loss) else None
        if channel.busy_until > now:
            # Taken: booked on the channel's timeline.  The bookings this
            # claim outranked are re-timed, and their queued events defer.
            self.channel = channel
            self.tx = tx
            for booking in channel.book(self, now):
                booking.callbacks = _DEFER
            at = self.start + tx
            arrive, complete = _BOOKED_ARRIVE, _BOOKED_TX
        else:
            # Free: the hop starts now, and no later claim can move it.
            # Booking it too was measured slower (docs/performance.md).
            self.start = now
            at = channel.busy_until = now + tx
            arrive, complete = _ON_ARRIVE, _ON_TX
            if delay is not None and self.tracer is not None:
                self.tracer.hop_sent(self.hop, now)
        self.delay = delay
        self.callbacks = complete if delay is None else arrive
        env._eid += 1
        env._push(at + (delay or 0.0), _NORMAL_BASE + env._eid, self)

    def _defer(self) -> None:
        """Re-timed by a better claim: queue the hop's event again, at its
        new instant."""
        self.callbacks = _BOOKED_TX if self.delay is None else _BOOKED_ARRIVE
        env = self.env
        env._eid += 1
        env._push(self.start + self.tx + (self.delay or 0.0),
                  _NORMAL_BASE + env._eid, self)

    def _leave(self) -> None:
        """A booked hop's first event: leave the channel's bookings (a
        one-event hop stamps its tx-start here, others in :meth:`_on_tx`)."""
        self.channel.booked.remove(self)
        if self.delay is not None and self.tracer is not None:
            self.tracer.hop_sent(self.hop, self.start)

    def _on_tx(self) -> None:  # repro: fast-path (RPR204)
        """Transmission complete: draw loss, fly."""
        env = self.env
        link = self.link
        recording = self.tracer is not None
        if recording:
            self.tracer.hop_sent(self.hop, self.start)
        # The loss draw: a downed link drops without drawing the RNG;
        # otherwise one draw decides, and the drawn value splits
        # baseline "loss" from fault-injected "impairment" (draws
        # landing in the _extra_loss band) so drop_stats() tells the
        # two apart.
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
            if recording:
                self.tracer.hop_ended(self.hop, env.now, True)
            self._finish(self.network._drop, self.packet, drop_reason,
                         self.transit, link)
            return
        delay = link.latency * link._latency_scale
        if link.jitter > 0:
            delay += link._rng.uniform(0, link.jitter)
        self.callbacks = _ON_ARRIVE
        env._eid += 1
        env._push(env.now + delay, _NORMAL_BASE + env._eid, self)

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
        if self.flight is not None:
            self.flight.record_hop(
                link.label, node, packet.src, packet.dst, packet.port,
                None if self.tracer is None else self.transit)
        self.node = link.b if node == link.a else link.a
        if self.tracer is not None:
            self.tracer.hop_ended(self.hop, self.env.now)
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
        now = self.env.now
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


_BEGIN = (_Carrier._begin,)
_ON_TX = (_Carrier._on_tx,)
_ON_ARRIVE = (_Carrier._on_arrive,)
_BOOKED_TX = (_Carrier._leave, _Carrier._on_tx)
_BOOKED_ARRIVE = (_Carrier._leave, _Carrier._on_arrive)
_DEFER = (_Carrier._defer,)


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
        #: Per book key, what :meth:`_flush` folds into: the counter and
        #: the count already given it.
        self._folded: Dict[LabelKey, List[Any]] = {}
        self._latencies_folded = 0
        env.metrics.add_flush_hook(self._flush, _INSTRUMENTS)

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
        """Give ``env.metrics`` what the books gained since last time.

        The registry's flush hook: it runs before every read of a
        ``net.*`` instrument, so readers see fresh values while a flight
        pays no instrument call.  A counter is looked up once, in sorted
        order, the first time its count moves, and kept; a count that has
        not moved creates nothing.
        """
        registry = self.env.metrics
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
            count = books[key]
            kept = folded.get(key)
            if kept is None:
                if not count:
                    continue
                kept = folded[key] = [
                    registry.counter(key[0], **dict(key[1])), 0]
            if count != kept[1]:
                kept[0].add(count - kept[1])
                kept[1] = count
        values = self.delivery_latency.values
        if len(values) > self._latencies_folded:
            registry.histogram("net.delivery_latency").values.extend(
                values[self._latencies_folded:])
            self._latencies_folded = len(values)

    def host(self, name: str) -> Host:
        """Create (or fetch) the host attached to topology node ``name``."""
        if name not in self.topology._adjacency:
            raise NetworkError(
                "host must be a node of the topology: {!r}".format(name))
        if name not in self.hosts:
            self.hosts[name] = Host(self, name)
        return self.hosts[name]

    def transmit(self, packet: Packet) -> None:
        """Launch ``packet``'s carrier."""
        _Carrier(self, packet)._launch()

    def _drop(self, packet: Packet, reason: str, span, link=None) -> None:
        # Per-link, per-reason attribution: the "drops" column in the
        # dashboard's link table rolls this up.
        key = (link.label if link is not None else None, reason)
        self._drops[key] = self._drops.get(key, 0) + 1
        flight = self.env._flight
        if flight is not None:
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
