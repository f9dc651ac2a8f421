"""The packet carrier: pinned storms, an independent model, its cost.

One :class:`~repro.net.network._Carrier` per packet queues one event
per hop over a link that is up and draws nothing — its arrival, at its
start on the channel's timeline plus transmission and propagation —
and reads that link at the claim; a hop over a link that draws, or is
down, also queues its tx-complete and reads the link there.  Its own
start (in-run sends), each claim, the delivered put and its end event
are never queued; a booking that a better claim re-timed re-queues its
event once.  ``tests/analysis/carry_flight_pins.json``
holds what the storms below deliver, when, and what they book — its
``"source"`` string says where the pins come from — and they must keep
reproducing those pins bit for bit.  Further down, an independent
generator model written only with public calls, with its own priority
channel, is held equal to the carrier over random topologies, the
boundary with foreign code (handlers, the drop hook) and the carrier's
lifetime are pinned, and the kernel's event counters are held to what
is actually pushed and popped.
"""

import collections
import functools
import gc
import json
import math
import os
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.faults import FaultInjector, FaultSchedule
from repro.net.network import (BEST_EFFORT_PRIORITY, RESERVED_PRIORITY,
                               Network)
from repro.net.packet import HEADER_BYTES
from repro.net.topology import Topology, lan, line, wan
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.run import trace_digest
from repro.sim import Environment, Store
from tests.counting import CountingEnvironment, ShuffledEnvironment
from tests.lockstep import Whole, lockstep

_PINS = os.path.join(os.path.dirname(__file__), os.pardir, "analysis",
                     "carry_flight_pins.json")


def _pinned(name):
    with open(_PINS, encoding="utf-8") as handle:
        return json.load(handle)["storms"][name]


def _storm(loss=0.0, schedule=None, env=None):
    """One deterministic WAN storm; returns comparable state."""
    env = env or Environment()
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
        "env": env.stats(),
        "counters": dict(network.counters._counts),
        "latency_count": network.delivery_latency.count,
        "latency_mean": network.delivery_latency.mean,
        "drops": network.drop_stats(),
        "link_bytes": network.total_link_bytes(),
    }


def test_clean_storm_matches_pinned_reference():
    """Deliveries, their instants, latencies and books sit inside the
    hashed result; the event counters do not (see ``trace_digest``)."""
    assert trace_digest(_storm()) == _pinned("clean")


def test_storm_under_loss_matches_pinned_reference():
    assert trace_digest(_storm(loss=0.05)) == _pinned("loss")


def _flap_and_burst():
    return (FaultSchedule()
            .link_down(0.010, "site0.router", "site1.router", up_at=0.030)
            .loss_burst(0.005, extra_loss=0.5, duration=0.010,
                        links=[("site1.router", "site2.router")]))


def test_storm_under_faults_matches_pinned_reference():
    result = _storm(schedule=_flap_and_burst())
    assert result["drops"], "fault storm produced no drops to compare"
    assert result["drops"].get("impairment"), "the loss burst drew nothing"
    assert trace_digest(result) == _pinned("faults")


def _lan_chat(env=None):
    """Four LAN hosts, 25 datagrams each, run to completion."""
    env = env or Environment()
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
    assert trace_digest(result) == _pinned("lan-chat-metrics")


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
    queued start event, so a link mutation between send() and run()
    affects the packet: the flight starts inside the run, not at send()."""
    env = Environment()
    topo = line(env, length=2, seed=5)
    network = Network(env, topo)
    network.host("n1")
    network.host("n0").send("n1", payload="early", size=64)
    assert env.stats()["queue_depth"] == 1
    topo.link_between("n0", "n1").loss = 1.0
    env.run()
    assert network.drop_stats() == {"loss": 1}
    # The start event and, the link drawing its loss, the tx-complete.
    assert env.stats()["events_scheduled"] == 2
    assert env.stats()["events_processed"] == 2


def test_in_run_sends_start_synchronously():
    """transmit() from inside a process begins the flight on the spot:
    the channel is busy before send() returns, and no start event is
    queued."""
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
        claimed.append((channel.busy_until > env.now,
                        env.events_scheduled - before))

    env.process(sender(env))
    env.run()
    # One queued event: the free hop's arrival.
    assert claimed == [(True, 1)]
    assert network.counters["delivered"] == 1


# -- the boundary with foreign code -------------------------------------------

class _Boom(Exception):
    """Raised by the foreign code under test."""


def _two_hosts(loss=0.0, env=None):
    env = env or Environment()
    topo = line(env, length=2, seed=11)
    topo.link_between("n0", "n1").loss = loss
    network = Network(env, topo)
    return env, topo, network, network.host("n0"), network.host("n1")


def _raise_once(seen):
    def foreign(packet, *_reason):
        seen.append(packet.payload)
        if len(seen) == 1:
            raise _Boom(packet.payload)
    return foreign


@pytest.mark.parametrize("loss", [0.0, 1.0], ids=["on_packet", "on_drop"])
def test_foreign_exceptions_surface_from_run_and_the_run_resumes(loss):
    """What a handler or the drop hook raises comes straight out of
    env.run() with its own type; the stand-in is uninstalled on the way
    and the rest of the schedule is intact."""
    env, _topo, network, n0, n1 = _two_hosts(loss)
    seen = []
    n1.on_packet(0, _raise_once(seen))
    network.on_drop = _raise_once(seen)
    n0.send("n1", payload="first", size=64)
    n0.send("n1", payload="second", size=64)
    with pytest.raises(_Boom, match="first"):
        env.run()
    assert env.active_process is None
    assert seen == ["first"]
    env.run()
    assert seen == ["first", "second"]
    assert env.active_process is None
    assert env.stats()["queue_depth"] == 0
    # A start each, then: delivered, an arrival each (the second booked
    # behind the first); lost, a tx-complete each.  The raise left
    # nothing queued and nothing uncounted.
    assert env.stats()["events_scheduled"] == 4
    assert env.stats()["events_processed"] == env.stats()["events_scheduled"]


def test_handler_runs_under_a_stand_in_and_its_reply_starts_synchronously():
    env, topo, network, n0, n1 = _two_hosts()
    back = topo.link_between("n0", "n1").channel("n1")
    inside = []

    def handler(packet):
        active = env.active_process
        before = env.stats()
        n1.send("n0", payload="reply", size=64)
        after = env.stats()
        inside.append((active is not None, active.span,
                       back.busy_until > env.now,
                       after["events_scheduled"] - before["events_scheduled"],
                       after["queue_depth"] - before["queue_depth"]))

    n1.on_packet(0, handler)
    n0.send("n1", payload="request", size=64)
    env.run()
    # Synchronous: the channel is booked when send() returns, and the one
    # event queued is the free hop's arrival.
    assert inside == [(True, None, True, 1, 1)]
    assert env.active_process is None
    # Queued start, for contrast: no active process, nothing claimed,
    # the one queued event is the start.
    before = env.stats()
    n1.send("n0", payload="late", size=64)
    after = env.stats()
    assert back.busy_until <= env.now and not back.booked
    assert after["events_scheduled"] - before["events_scheduled"] == 1
    assert after["queue_depth"] - before["queue_depth"] == 1
    env.run()
    assert network.counters["delivered"] == 3


def test_zero_hop_send_delivers_at_the_same_instant():
    """A datagram to the sender's own host takes no hop and no time, but
    the receiver's handler runs after send() returned — never inside the
    sender, in-run or at set-up."""
    env, _topo, network, n0, _n1 = _two_hosts()
    arrivals = []
    n0.on_packet(0, lambda packet: arrivals.append(
        (packet.payload, env.now, packet.hops)))

    def sender(env):
        yield env.timeout(0.25)
        n0.send("n0", payload="in-run")
        arrivals.append("send() returned")

    n0.send("n0", payload="setup")
    assert arrivals == []
    env.process(sender(env))
    env.run()
    assert arrivals == [("setup", 0.0, 0), "send() returned",
                        ("in-run", 0.25, 0)]
    assert env.now == 0.25


def test_carriers_die_by_refcount_when_the_flight_ends():
    """Nothing keeps a carrier once its flight ends — a cycle through it
    would keep packet, route and spans alive until the next cyclic
    collection.  Bursts, so most carriers waited in a channel's heap and
    then held it."""
    env, _topo, network, n0, n1 = _two_hosts()
    lossy = Network(env, line(env, length=2, seed=3))
    lossy.topology.link_between("n0", "n1").loss = 1.0
    lossy.host("n1")
    carriers = []
    n1.on_packet(0, lambda packet: carriers.append(
        weakref.ref(env.active_process)))
    lossy.on_drop = lambda packet, reason: carriers.append(
        weakref.ref(env.active_process))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(4):
            n0.send("n1", size=64)
            lossy.host("n0").send("n1", size=64)
        lossy.host("n0").send("nowhere", size=64)      # no-route
        env.run()
        alive = [ref for ref in carriers if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert len(carriers) == 9
    assert network.counters["delivered"] == 4
    assert lossy.drop_stats() == {"loss": 4, "no-route": 1}
    assert alive == []


def test_carriers_die_by_refcount_when_bookings_are_re_timed():
    """The same with reserved claims outranking booked best-effort ones,
    over a link that draws nothing and one that drops everything: a
    re-timed carrier leaves its channel's bookings too."""
    env, _topo, network, _n0, n1 = _two_hosts()
    lossy = Network(env, line(env, length=2, seed=3))
    lossy.topology.link_between("n0", "n1").loss = 1.0
    lossy.host("n1")
    channels = [net.topology.link_between("n0", "n1").channel("n0")
                for net in (network, lossy)]
    carriers, booked = [], []
    n1.on_packet(0, lambda packet: carriers.append(
        weakref.ref(env.active_process)))
    lossy.on_drop = lambda packet, reason: carriers.append(
        weakref.ref(env.active_process))

    def sender(env):
        yield env.timeout(0.001)
        for priority in (BEST_EFFORT_PRIORITY,) * 3 + (RESERVED_PRIORITY,) * 2:
            for net in (network, lossy):
                net.host("n0").send("n1", size=64,
                                    headers={"priority": priority})
        booked.extend([booking.priority for booking in channel.booked]
                      for channel in channels)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env.process(sender(env))
        env.run()
        alive = [ref for ref in carriers if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    # Behind the first packet on each channel, the two reserved claims
    # were booked ahead of the two best-effort ones they re-timed.
    assert booked == [[RESERVED_PRIORITY] * 2 + [BEST_EFFORT_PRIORITY] * 2] * 2
    assert len(carriers) == 10
    assert network.counters["delivered"] == 5
    assert lossy.drop_stats() == {"loss": 5}
    assert not any(channel.booked for channel in channels)
    assert alive == []


# -- the counters count --------------------------------------------------------

def _contended_claims(env):
    """Same-instant bursts of mixed priority over a link that draws
    nothing, then one that jitters: claims on a free channel, booked
    behind it, and outranking bookings that are then re-timed; stopped
    with bookings not yet started, then drained."""
    topo = line(env, length=3, bandwidth=1e6, seed=5)
    topo.link_between("n1", "n2").jitter = 1e-4
    network = Network(env, topo)
    network.host("n2")
    channels = [link.channel(node) for link, node in (
        (topo.link_between("n0", "n1"), "n0"),
        (topo.link_between("n1", "n2"), "n1"))]

    def burst(env, i):
        yield env.timeout(0.003 * i)
        for j in range(4):
            network.host("n0").send("n2", size=200 * (j + 1), headers={
                "priority": (RESERVED_PRIORITY, BEST_EFFORT_PRIORITY)[
                    (i + j) % 2]})

    for i in range(3):
        env.process(burst(env, i))
    env.run(until=0.004)
    assert any(booking.start > env.now
               for channel in channels for booking in channel.booked)
    env.run()
    assert not any(channel.booked for channel in channels)
    assert network.counters["delivered"] == 12


def _puts(env):
    """Puts into an empty store, to a waiting getter, onto a backlog."""
    store = Store(env)
    got = []

    def producer(env):
        for i in range(6):
            store.put(i)
            yield env.timeout(0.01 if i % 2 else 0.0)

    def consumer(env):
        yield env.timeout(0.015)
        for _ in range(6):
            got.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == list(range(6))


def _raising_handler(env):
    _env, _topo, _network, n0, n1 = _two_hosts(env=env)
    seen = []
    n1.on_packet(0, _raise_once(seen))
    for payload in ("first", "second"):
        n0.send("n1", payload=payload, size=64)
    with pytest.raises(_Boom):
        env.run()
    env.run()
    assert seen == ["first", "second"]


class _SortingEnvironment(Environment):
    """Tallies each queued event by what fires it: a carrier's callback
    (the last of its shared tuple), or anything else."""

    def __init__(self):
        super().__init__()
        self.pushed = collections.Counter()

    def _push(self, time, key, event):
        callbacks = event.callbacks
        self.pushed[callbacks[-1].__name__ if type(callbacks) is tuple
                    else "other"] += 1
        super()._push(time, key, event)


def test_a_packet_costs_one_queued_event_per_free_hop_and_nothing_else():
    """The clean storm: 240 packets over 3 hops each, on links that draw
    nothing: each hop queues its arrival and nothing else.  The rest is
    the storm's own processes: 12 starts, 6 sender exits, 240 send
    timeouts and the ``until`` stop.  A receive is handed to its waiting
    receiver in the delivery (``Event.resolve``) and queues nothing."""
    env = _SortingEnvironment()
    stats = _storm(env=env)["env"]
    assert env.pushed == {"_on_arrive": 240 * 3, "other": 259}
    assert stats["events_processed"] == 240 * 3 + 259
    assert stats["events_scheduled"] == stats["events_processed"]


@pytest.mark.parametrize("scenario", [
    lambda env: _storm(env=env),
    lambda env: _storm(loss=0.05, env=env),
    lambda env: _storm(schedule=_flap_and_burst(), env=env),
    _lan_chat, _contended_claims, _puts, _raising_handler,
], ids=["clean", "loss", "faults", "lan-chat", "claims", "puts",
        "raising-handler"])
def test_events_scheduled_are_pushes_and_events_processed_are_pops(
        scenario):
    """After every run() — also one a handler's exception ended —
    ``events_scheduled`` is the number of ``_push`` calls,
    ``events_processed`` the number of popped entries, and the
    difference is what is still queued."""
    env = CountingEnvironment()
    scenario(env)
    assert env.pops > 0


# -- an independent model ------------------------------------------------------
#
# A reference implementation, not a second path: one generator process
# per packet, written only with public calls, one queued event per step
# (start, grant, transmission, propagation, end), on a booking timeline
# of its own.  It states the carrier's rule plainly: a hop over a link
# that is up and draws nothing reads the link at its claim, whether its
# channel is free or taken; every other hop reads it when its
# transmission ends.  Its loss draw and propagation delay are its own
# copies of the carrier's, reasons and the RNG draws they take included,
# so every drop's reason is compared.
#
# Link latencies, send instants and fault instants are multiples of
# square roots of distinct primes, so no two events of different kinds
# ever share an instant: the model queues a start and a grant where the
# carrier acts on the spot, so at an exact tie another packet's event
# can slip in between in the model and not in the carrier (with round
# latencies and sizes the property fails on a burst sent at the instant
# a transmission completes).

_ROOTS = [math.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
_SEND_STEP = 1e-3 * math.sqrt(31)
_FAULT_STEP = 1e-3 * math.sqrt(37)


class _ModelChannel:
    """A timeline: one transmission on the wire, then the bookings that
    have not started, in service order.  A claim is booked behind every
    booking it does not outrank (a lower priority is better); each
    booking starts when the transmission before it ends."""

    def __init__(self, env):
        self.env = env
        self.on_wire = False
        self.booked = []        # (priority, start event), service order

    def book(self, priority):
        start = self.env.event()
        if not self.on_wire:
            self.on_wire = True
            return start.succeed()
        at = next((i for i, (other, _) in enumerate(self.booked)
                   if other > priority), len(self.booked))
        self.booked.insert(at, (priority, start))
        return start

    def ended(self):
        """The transmission on the wire ended: the next booking starts."""
        if self.booked:
            self.booked.pop(0)[1].succeed()
        else:
            self.on_wire = False


def _model_drop(link):
    """The loss draw: none on a downed link, else one draw, "loss" below
    ``loss`` and "impairment" in the band a fault adds above it."""
    if not link.up:
        return "link-down"
    probability = link.loss + link._extra_loss
    if probability <= 0:
        return None
    draw = link._rng.random()
    if draw >= min(probability, 1.0):
        return None
    return "loss" if draw < link.loss else "impairment"


def _model_propagation(link):
    """Latency, scaled by any storm, plus a jitter draw."""
    delay = link.latency * link._latency_scale
    if link.jitter <= 0:
        return delay
    return delay + link._rng.uniform(0, link.jitter)


def _model_carry(env, topo, hosts, send, outcomes, drops, channels):
    index, src, dst, size, priority = send
    wire = size + HEADER_BYTES
    try:
        links = topo.path(src, dst)
    except RoutingError:
        outcomes[index] = ("dropped", "no-route", env.now, 0)
        drops["no-route"] = drops.get("no-route", 0) + 1
        return
    node, hops = src, 0
    for link in links:
        channel = channels.setdefault((link.label, node),
                                      _ModelChannel(env))
        # Read at the claim: a link that is up and draws nothing fixes
        # the hop's fate and delay here, free channel or taken.
        at_claim = link.up and not (
            link.loss or link.jitter or link._extra_loss)
        delay = link.latency * link._latency_scale
        yield channel.book(priority)
        yield env.timeout(link.transmission_delay(wire))
        channel.ended()
        if not at_claim:
            reason = _model_drop(link)
            if reason is not None:
                link.stats.drops += 1
                outcomes[index] = ("dropped", reason, env.now, hops)
                drops[reason] = drops.get(reason, 0) + 1
                return
            delay = _model_propagation(link)
        yield env.timeout(delay)
        link.stats.packets += 1
        link.stats.bytes += wire
        hops += 1
        node = link.other_end(node)
    if dst not in hosts:
        outcomes[index] = ("dropped", "no-host", env.now, hops)
        drops["no-host"] = drops.get("no-host", 0) + 1
        return
    outcomes[index] = ("delivered", None, env.now, hops)


def _world(spec, launch_for, env_cls=Environment):
    """Build ``spec``'s topology and schedule, sending through
    ``launch_for(env, topo, hosts, outcomes)``; returns everything
    comparable."""
    env = env_cls()
    topo = Topology(env)
    topo.add_node("island")
    for i, (parent, bandwidth, loss, jitter) in enumerate(spec["links"]):
        topo.add_link("v{}".format(parent), "v{}".format(i + 1),
                      latency=1e-3 * _ROOTS[i], bandwidth=bandwidth,
                      loss=loss, jitter=jitter,
                      rng=random.Random(spec["seed"] + i))
    links = topo.links()
    hosts = ["v{}".format(i) for i in spec["hosts"]]
    outcomes = {}
    launch, drop_book = launch_for(env, topo, hosts, outcomes)

    def fault(env, step, link, change):
        yield env.timeout(step * _FAULT_STEP)
        if change is None:
            link.up = not link.up
        else:
            link.impair(*change)

    def driver(env, bursts):
        for step, burst in bursts:
            yield env.timeout(step * _SEND_STEP - env.now)
            for send in burst:
                launch(send)

    for step, which, change in spec["faults"]:
        env.process(fault(env, step, links[which % len(links)], change))
    bursts = sorted(spec["bursts"].items())
    if bursts and bursts[0][0] == 0:    # step 0 is sent before the run
        for send in bursts.pop(0)[1]:
            launch(send)
    env.process(driver(env, bursts))
    env.run()
    return {
        "outcomes": outcomes,
        "fates": sorted(outcomes),      # every packet's, exactly once
        "drops": drop_book(),
        "links": {link.label: (link.stats.packets, link.stats.bytes,
                               link.stats.drops, link._rng.getstate())
                  for link in links},
    }


def _through_network(env, topo, hosts, outcomes):
    network = Network(env, topo)

    def landed(kind):
        def record(packet, reason=None):
            assert env.active_process is not None
            outcomes[packet.payload] = (kind, reason, env.now, packet.hops)
        return record

    for name in hosts:
        network.host(name).on_packet(0, landed("delivered"))
    network.on_drop = landed("dropped")

    def launch(send):
        index, src, dst, size, priority = send
        network.host(src).send(dst, payload=index, size=size,
                               headers={"priority": priority})

    return launch, network.drop_stats


def _through_model(env, topo, hosts, outcomes):
    drops, channels = {}, {}

    def launch(send):
        env.process(_model_carry(env, topo, hosts, send, outcomes, drops,
                                 channels))
    return launch, lambda: drops


@st.composite
def _specs(draw):
    nodes = draw(st.integers(2, 6))
    links = [(draw(st.integers(0, i)),
              draw(st.sampled_from([1e5, 1e6, 1e7])),
              draw(st.sampled_from([0.0, 0.0, 0.2, 0.6])),
              draw(st.sampled_from([0.0, 0.0, 4e-4])))
             for i in range(nodes - 1)]
    hosts = draw(st.sets(st.integers(0, nodes - 1), min_size=1))
    names = ["v{}".format(i) for i in range(nodes)] + ["island"]
    counter = iter(range(10 ** 6))

    def sends(src, dst=None):
        return (next(counter), "v{}".format(src),
                dst or draw(st.sampled_from(names)),
                draw(st.integers(0, 1500)),
                draw(st.sampled_from([BEST_EFFORT_PRIORITY,
                                      BEST_EFFORT_PRIORITY,
                                      RESERVED_PRIORITY])))

    # One burst of >= 8 same-instant sends over one first hop — the
    # path where a carrier queues *itself* — plus a random mix.
    src = draw(st.sampled_from(sorted(hosts)))
    dst = draw(st.sampled_from([n for n in names[:-1]
                                if n != "v{}".format(src)]))
    bursts = {draw(st.integers(0, 3)):
              [sends(src, dst) for _ in range(draw(st.integers(8, 12)))]}
    for _ in range(draw(st.integers(0, 4))):
        step = draw(st.integers(0, 6))
        origin = draw(st.sampled_from(sorted(hosts)))
        bursts.setdefault(step, []).extend(
            sends(origin) for _ in range(draw(st.integers(1, 4))))
    faults = draw(st.lists(st.tuples(
        st.integers(1, 12), st.integers(0, 8),
        st.one_of(st.none(), st.tuples(st.sampled_from([1.0, 2.5]),
                                       st.sampled_from([0.0, 0.3])))),
        max_size=4))
    return {"links": links, "hosts": sorted(hosts), "bursts": bursts,
            "faults": faults, "seed": draw(st.integers(0, 2 ** 16))}


# Two 1500-byte datagrams over one 100 kb/s link (0.12 s each on the
# wire) that goes down 6 ms into the first and stays down: both found
# the link up at their claims, the second booked behind the first, and
# both are delivered.
_DOWN_MID_TX = {
    "links": [(0, 1e5, 0.0, 0.0)], "hosts": [0, 1],
    "bursts": {0: [(i, "v0", "v1", 1500, BEST_EFFORT_PRIORITY)
                   for i in range(2)]},
    "faults": [(1, 0, None)], "seed": 0}

# Three best-effort 1500-byte datagrams at 0 s over the same link, the
# second and third booked behind the first; at the next send step a
# reserved one outranks both bookings and takes the second's start.
_RETIMED = {
    "links": [(0, 1e5, 0.0, 0.0)], "hosts": [0, 1],
    "bursts": {0: [(i, "v0", "v1", 1500, BEST_EFFORT_PRIORITY)
                   for i in range(3)],
               1: [(3, "v0", "v1", 100, RESERVED_PRIORITY)]},
    "faults": [], "seed": 0}


@settings(max_examples=150)
@given(_specs())
@example(_DOWN_MID_TX)
@example(_RETIMED)
def test_carrier_matches_the_generator_model(spec):
    """Per-packet fate (delivered/dropped, why, when, after how many
    hops), every link's books and RNG state, and the drop totals."""
    carried = _world(spec, _through_network)
    lockstep(Whole(carried), Whole(_world(spec, _through_model)), ())
    assert len(carried["outcomes"]) == sum(map(len, spec["bursts"].values()))


@pytest.mark.parametrize("change, fired", [
    (None, {"_on_arrive": 1}),
    (lambda link: setattr(link, "jitter", 1e-4),
     {"_on_tx": 1, "_on_arrive": 1}),
    (lambda link: link.impair(extra_loss=1e-9),
     {"_on_tx": 1, "_on_arrive": 1}),
], ids=["draws-nothing", "jitter", "fault-loss"])
def test_only_a_free_hop_over_a_link_that_draws_nothing_is_one_event(
        change, fired):
    """A link that jitters or carries a fault's loss keeps the hop's
    tx-complete, where it draws."""
    env = _SortingEnvironment()
    _env, topo, network, n0, _n1 = _two_hosts(env=env)
    if change is not None:
        change(topo.link_between("n0", "n1"))

    def sender(env):
        yield env.timeout(0.001)
        n0.send("n1", size=64)

    env.process(sender(env))
    env.run()
    assert {name: count for name, count in env.pushed.items()
            if name.startswith("_on")} == fired


def test_a_storm_reaches_a_one_event_hop_at_its_next_claim():
    """A latency storm that starts while a one-event hop is on the wire
    leaves that hop's propagation as it was read at the claim; the next
    hop, claimed under the storm, is slowed."""
    env = Environment()
    topo = line(env, length=3, bandwidth=1e5, seed=5)
    network = Network(env, topo)
    arrivals = []
    network.host("n2").on_packet(0, lambda packet: arrivals.append(env.now))
    links = [topo.link_between("n0", "n1"), topo.link_between("n1", "n2")]
    network.host("n0").send("n2", size=1000)

    def storm(env):
        yield env.timeout(0.01)
        for link in links:
            link.impair(latency_scale=3.0)

    env.process(storm(env))
    env.run()
    tx, latency = links[0].transmission_delay(1000 + HEADER_BYTES), 0.005
    first = (0.0 + tx) + latency
    assert arrivals == [(first + tx) + latency * 3.0]


def test_a_link_down_at_the_claim_is_read_again_at_tx_complete():
    """A hop that claims a link cut after its route was chosen keeps its
    tx-complete and reads the link there: up again by then, the packet
    goes through."""
    env = _SortingEnvironment()
    topo = line(env, length=3, seed=5)
    network = Network(env, topo)
    second = topo.link_between("n1", "n2")
    second.bandwidth = 1e5
    arrivals = []
    network.host("n2").on_packet(0, lambda packet: arrivals.append(env.now))
    network.host("n0").send("n2", size=1000)

    def flap(env):
        yield env.timeout(0.001)        # on the first hop
        second.set_up(False)
        yield env.timeout(0.019)        # the second is on the wire
        second.set_up(True)

    env.process(flap(env))
    env.run()
    wire = 1000 + HEADER_BYTES
    first = (0.0 + topo.link_between("n0", "n1").transmission_delay(wire)) \
        + 0.005
    assert arrivals == [(first + second.transmission_delay(wire)) + 0.005]
    assert {name: count for name, count in env.pushed.items()
            if name.startswith("_on")} == {"_on_arrive": 2, "_on_tx": 1}


def test_a_one_event_hop_reads_the_link_at_its_claim():
    """A link going down while one hop is on the wire and another waits
    for the channel reaches neither: both read the link at their claims
    (the reference case above)."""
    outcomes = _world(_DOWN_MID_TX, _through_network)["outcomes"]
    wire = (1500 + HEADER_BYTES) * 8 / 1e5
    latency = 1e-3 * _ROOTS[0]
    assert outcomes == {
        0: ("delivered", None, wire + latency, 1),
        1: ("delivered", None, (wire + wire) + latency, 1)}


def test_a_reserved_claim_re_times_the_bookings_it_outranks():
    """The re-timed reference case above: the reserved datagram starts
    when the first ends, and the two bookings it outranked each move
    back by its transmission.  Each packet arrives once, at its
    re-timed instant; each re-timed booking queued its arrival again
    once, and nothing else was queued for it."""
    envs = []

    def sorting():
        envs.append(_SortingEnvironment())
        return envs[-1]

    outcomes = _world(_RETIMED, _through_network, sorting)["outcomes"]
    big = (1500 + HEADER_BYTES) * 8 / 1e5
    small = (100 + HEADER_BYTES) * 8 / 1e5
    latency = 1e-3 * _ROOTS[0]
    reserved = 0.0 + big
    second = reserved + small
    third = second + big
    assert outcomes == {
        0: ("delivered", None, big + latency, 1),
        3: ("delivered", None, (reserved + small) + latency, 1),
        1: ("delivered", None, (second + big) + latency, 1),
        2: ("delivered", None, (third + big) + latency, 1)}
    assert {name: count for name, count in envs[0].pushed.items()
            if name.startswith("_")} == {"_begin": 3, "_on_arrive": 4 + 2}


@pytest.mark.parametrize("seed", [1, 2])
@settings(max_examples=40)
@given(_specs())
def test_ties_in_any_order_reorder_a_burst_and_lose_no_packet(seed, spec):
    """A burst leaves in the order its sends start: tie order for the
    model's processes and the carrier's set-up sends.  So each packet's
    fate and every link's books move with the ties (docs/analysis.md
    "Tie-sensitive modules"); that every packet has one fate does not."""
    shuffled = functools.partial(ShuffledEnvironment, seed)
    lockstep(Whole(_world(spec, _through_network, shuffled)),
             Whole(_world(spec, _through_model, shuffled)), (),
             ties=("outcomes", "drops", "links"))
