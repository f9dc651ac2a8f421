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
delivery and the flight's end queue nothing; the per-packet/per-hop
instruments accumulate in local cells flushed at registry-read/window
boundaries.  RNG draw order, hop, drop and delivery times match the
one-event-per-step carry this replaced: ``tests/net/test_carry.py``
holds the carrier to references pinned from it and to an independent
generator model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, RoutingError
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.propagation import extract
from repro.obs.span import NOOP_SPAN
from repro.obs.tracer import get_tracer
from repro.sim import Counter, Environment, Store, Tally
from repro.sim.environment import _NORMAL_BASE
from repro.sim.events import URGENT
from repro.sim.resources import PriorityRequest

#: Default packet priority; QoS-reserved flows use lower (better) values.
BEST_EFFORT_PRIORITY = 10
RESERVED_PRIORITY = 0

class _NetMetricCells:
    """Local accumulation cells for the per-packet/per-hop instruments.

    The batched-metrics layer: the hot path pays one int add (or one
    dict get/set for labelled counts) per record instead of a bound-
    instrument method call, and the cells fold into the real registry
    instruments only when somebody reads — every
    :class:`~repro.obs.metrics.MetricsRegistry` read path runs its
    flush hooks first, so the timeline recorder's window-boundary reads
    (riding ``set_window_hook``) and the SLO evaluators always see
    fresh values while the storm itself schedules zero flush events.
    Flush order is sorted, so snapshots stay hash-seed stable.
    """

    __slots__ = ("registry", "network", "sent", "delivered", "latencies",
                 "node_sent", "node_delivered", "link_bytes",
                 "drops", "link_drops",
                 "_sent_inst", "_delivered_inst", "_latency_inst")

    def __init__(self, network: "Network",
                 registry: MetricsRegistry) -> None:
        self.registry = registry
        self.network = network
        self._sent_inst = registry.bind_counter("net.sent")
        self._delivered_inst = registry.bind_counter("net.delivered")
        self._latency_inst = registry.bind_histogram("net.delivery_latency")
        self.sent = 0
        self.delivered = 0
        #: delivery latencies in record order (tally order is observable
        #: through Tally.values, so the flush preserves it).
        self.latencies: List[float] = []
        #: source node -> pending ``net.node.sent`` adds.
        self.node_sent: Dict[str, int] = {}
        #: destination node -> pending ``net.node.delivered`` adds.
        self.node_delivered: Dict[str, int] = {}
        #: link label -> pending ``net.bytes`` adds.
        self.link_bytes: Dict[str, int] = {}
        #: reason -> pending ``net.drops`` adds.  Going through the
        #: keyed factory per drop would flush every cell mid-storm
        #: (factories flush so reads stay fresh) — a chaos schedule's
        #: drop burst must not pay that.
        self.drops: Dict[str, int] = {}
        #: (link label, reason) -> pending ``net.link.drops`` adds.
        self.link_drops: Dict[Tuple[str, str], int] = {}
        registry.add_flush_hook(self.flush, (
            "net.sent", "net.delivered", "net.delivery_latency",
            "net.node.sent", "net.node.delivered", "net.bytes",
            "net.drops", "net.link.drops"))

    def flush(self) -> None:
        """Fold every pending cell into the registry instruments."""
        count = self.sent
        if count:
            self.sent = 0
            self._sent_inst.add(count)
            counts = self.network._counters._counts
            counts["sent"] = counts.get("sent", 0) + count
        count = self.delivered
        if count:
            self.delivered = 0
            self._delivered_inst.add(count)
            counts = self.network._counters._counts
            counts["delivered"] = counts.get("delivered", 0) + count
        registry = self.registry
        if self.node_sent:
            for node, count in sorted(self.node_sent.items()):
                registry.counter("net.node.sent", node=node).add(count)
            self.node_sent.clear()
        if self.node_delivered:
            for node, count in sorted(self.node_delivered.items()):
                registry.counter("net.node.delivered",
                                 node=node).add(count)
            self.node_delivered.clear()
        if self.link_bytes:
            for label, count in sorted(self.link_bytes.items()):
                registry.counter("net.bytes", link=label).add(count)
            self.link_bytes.clear()
        if self.drops:
            for reason, count in sorted(self.drops.items()):
                registry.counter("net.drops", reason=reason).add(count)
            self.drops.clear()
        if self.link_drops:
            for (label, reason), count in sorted(self.link_drops.items()):
                registry.counter("net.link.drops", link=label,
                                 reason=reason).add(count)
            self.link_drops.clear()
        values = self.latencies
        if values:
            self.latencies = []
            record = self._latency_inst.record
            tally_record = self.network._delivery_latency.record
            for value in values:
                tally_record(value)
                record(value)


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
        self.sent = 0
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
    __slots__ = ("network", "packet", "cells", "transit", "tracer",
                 "flight", "links", "link", "node", "wire_size", "hop",
                 "__weakref__")

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
        """Resolve instruments and route, then claim the first hop."""
        network = self.network
        packet = self.packet
        tracer = network._tracer if network._tracer is not None \
            else get_tracer()
        metrics = network._metrics if network._metrics is not None \
            else get_metrics()
        # The carrier keeps the cells it resolves here: another packet
        # may rebind the network to a different registry mid-flight.
        cells = network._cells
        if cells is None or cells.registry is not metrics:
            cells = network._cells = _NetMetricCells(network, metrics)
            network._all_cells.append(cells)
        self.cells = cells
        cells.sent += 1
        node_sent = cells.node_sent
        src = packet.src
        node_sent[src] = node_sent.get(src, 0) + 1
        self.wire_size = wire_size = packet.wire_size
        # Transit spans parent under whatever context the sender stamped
        # into the packet headers (e.g. an rpc.call span), so one trace
        # tree covers the request end to end.
        if tracer.enabled:
            span = tracer.start_span(
                "net.transmit", at=self.env.now,
                parent=extract(packet.headers), src=src, dst=packet.dst,
                port=packet.port, bytes=wire_size)
        else:
            span = NOOP_SPAN
        self.transit = span
        try:
            self.links = iter(network.topology.path(src, packet.dst))
        except RoutingError:
            self._finish(network._drop, packet, "no-route", cells, span)
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
        self.hop = self.tracer.start_span(
            "net.link", at=now, parent=self.transit, link=link.label,
            node=node, bytes=self.wire_size) \
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
            hop.add_event("tx-start", at=self.usage_since)
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
                hop.set_status("dropped")
                hop.finish(at=env._now)
            self._finish(self.network._drop, self.packet, drop_reason,
                         self.cells, self.transit, link)
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
        label = link.label
        link_bytes = self.cells.link_bytes
        link_bytes[label] = link_bytes.get(label, 0) + wire_size
        packet.hops += 1
        node = self.node
        hop = self.hop
        if self.flight is not None:
            self.flight.record_hop(label, node, packet.src, packet.dst,
                                   packet.port, span=hop)
        self.node = link.b if node == link.a else link.a
        if hop is not None:
            hop.finish(at=self.env._now)
        self._claim()

    def _deliver(self) -> None:
        """Past the last hop: hand the packet to the destination host."""
        packet = self.packet
        dst = packet.dst
        cells = self.cells
        target = self.network.hosts.get(dst)
        if target is None:
            self._finish(self.network._drop, packet, "no-host", cells,
                         self.transit)
            return
        now = self.env._now
        cells.delivered += 1
        node_delivered = cells.node_delivered
        node_delivered[dst] = node_delivered.get(dst, 0) + 1
        cells.latencies.append(now - packet.created_at)
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

    def __init__(self, env: Environment, topology: Topology,
                 tracer=None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if topology.env is not env:
            raise NetworkError("topology belongs to a different environment")
        self.env = env
        self.topology = topology
        self.hosts: Dict[str, Host] = {}
        self._counters = Counter()
        self._delivery_latency = Tally("delivery-latency")
        #: Optional hook called with (packet, reason) on every drop.
        self.on_drop: Optional[Callable[[Packet, str], None]] = None
        #: Per-reason drop tally behind :meth:`drop_stats`.
        self._drop_reasons: Dict[str, int] = {}
        # Instance overrides; None means "use the process-wide default",
        # resolved per packet so tracing can be enabled mid-run.
        self._tracer = tracer
        self._metrics = metrics
        # Metric cells: the current binding (rebound whenever the
        # resolved registry's identity changes — use_metrics scoping,
        # mid-run enablement) plus every binding ever made, so
        # counters/delivery_latency reads can flush stragglers from
        # before a registry swap.
        self._cells: Optional[_NetMetricCells] = None
        self._all_cells: List[_NetMetricCells] = []

    @property
    def counters(self) -> Counter:
        """Legacy sent/delivered/dropped counts (cells flushed first)."""
        for cells in self._all_cells:
            cells.flush()
        return self._counters

    @property
    def delivery_latency(self) -> Tally:
        """End-to-end delivery latencies (cells flushed first)."""
        for cells in self._all_cells:
            cells.flush()
        return self._delivery_latency

    def host(self, name: str) -> Host:
        """Create (or fetch) the host attached to topology node ``name``."""
        if name not in self.topology._adjacency:
            raise NetworkError("no topology node named {}".format(name))
        if name not in self.hosts:
            self.hosts[name] = Host(self, name)
        return self.hosts[name]

    def transmit(self, packet: Packet) -> None:
        """Launch ``packet``'s carrier."""
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

    def _drop(self, packet: Packet, reason: str, cells: _NetMetricCells,
              span, link=None) -> None:
        self._counters.incr("dropped")
        self._counters.incr("dropped:" + reason)
        self._drop_reasons[reason] = self._drop_reasons.get(reason, 0) + 1
        # Accumulate in the cells — the keyed registry factories flush
        # every cell on entry, which a loss burst must not pay per drop.
        drops = cells.drops
        drops[reason] = drops.get(reason, 0) + 1
        if link is not None:
            # Per-link, per-reason attribution: the "drops" column in
            # the dashboard's link table rolls this up.
            link_drops = cells.link_drops
            drop_key = (link.label, reason)
            link_drops[drop_key] = link_drops.get(drop_key, 0) + 1
        flight = self.env._flight
        if flight is not None and flight.journal_net:
            flight.record_drop(reason,
                               link.label if link is not None else None,
                               packet.src, packet.dst, packet.port,
                               span=span)
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
        return dict(self._drop_reasons)

    def total_link_bytes(self) -> int:
        """Bytes carried across every link (the E9 cost metric)."""
        return sum(link.stats.bytes for link in self.topology.links())

    def __repr__(self) -> str:
        return "<Network hosts={} nodes={}>".format(
            len(self.hosts), len(self.topology.nodes))
