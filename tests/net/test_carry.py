"""The packet carrier must behave like the carry it replaced.

One :class:`~repro.net.network._Carrier` per packet queues two events
per hop and nothing else: its own start (in-run sends), each uncontended
claim's grant, the delivered put and its end event are never queued.
The carry that queued every one of them (a generator process per packet,
on a binary-heap scheduler) is deleted;
``tests/analysis/carry_flight_pins.json`` holds what it delivered, when,
and what it booked — its ``"source"`` string says how the pins got from
that carry to this one — and the storms below must keep reproducing
those pins bit for bit.  Further down, an independent generator model
written only with public calls is held equal to the carrier over random
topologies, the boundary with foreign code (handlers, the drop hook) and
the carrier's lifetime are pinned, and the kernel's event counters are
held to what is actually pushed and popped.
"""

import gc
import json
import math
import os
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.replay import trace_digest
from repro.errors import RoutingError
from repro.faults import FaultInjector, FaultSchedule
from repro.net.network import (BEST_EFFORT_PRIORITY, RESERVED_PRIORITY,
                               Network)
from repro.net.packet import HEADER_BYTES
from repro.net.topology import Topology, lan, line, wan
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment, PriorityResource, Store
from repro.sim.resources import PriorityRequest
from tests.counting import CountingEnvironment

_PINS = os.path.join(os.path.dirname(__file__), os.pardir, "analysis",
                     "carry_flight_pins.json")


def _pinned(name):
    with open(_PINS, encoding="utf-8") as handle:
        return json.load(handle)["storms"][name]


@pytest.fixture(autouse=True)
def fresh_metrics():
    with use_metrics(MetricsRegistry()):
        yield


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
            .link_down(0.010, "site0.router", "site1.router")
            .link_up(0.030, "site0.router", "site1.router")
            .loss_burst(0.040, extra_loss=0.5, duration=0.020,
                        links=[("site1.router", "site2.router")]))


def test_storm_under_faults_matches_pinned_reference():
    result = _storm(schedule=_flap_and_burst())
    assert result["drops"], "fault storm produced no drops to compare"
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


def test_network_keeps_the_registry_of_its_first_send():
    """A registry is bound once: at the first send, not at construction
    (the ``env`` fixture precedes the ``registry`` fixture) and never
    again, so a later scope sees nothing of a network already in use."""
    first, second = MetricsRegistry(), MetricsRegistry()
    env = Environment()
    network = Network(env, line(env, length=2, seed=11))
    network.host("n1")
    sender = network.host("n0")
    with use_metrics(first):
        sender.send("n1", size=64)
        env.run()
    with use_metrics(second):
        sender.send("n1", size=64)
        sender.send("n1", size=64)
        env.run()
        assert second.snapshot() == {
            "counters": {}, "histograms": {}, "gauges": {}}
    assert network.counters["sent"] == 3
    assert network.delivery_latency.count == 3
    assert first.counter_total("net.sent") == 3
    assert first.counter_total("net.delivered") == 3
    assert first.counter_total("net.node.sent", node="n0") == 3
    assert first.histogram_count("net.delivery_latency") == 3


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
    # The start event and the claim that fires at tx-complete.
    assert env.stats()["events_scheduled"] == 2
    assert env.stats()["events_processed"] == 2


def test_in_run_sends_start_synchronously():
    """transmit() from inside a process begins the flight on the spot:
    the channel is claimed before send() returns, and no start event is
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
        claimed.append((channel.count, env.events_scheduled - before))

    env.process(sender(env))
    env.run()
    # One queued event: the claim, firing at tx-complete.
    assert claimed == [(1, 1)]
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
    # Per packet: start, tx-complete, propagation (delivered only) —
    # the raise left nothing queued and nothing uncounted.
    assert env.stats()["events_scheduled"] == (4 if loss else 6)
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
        inside.append((active is not None, active.span, back.count,
                       after["events_scheduled"] - before["events_scheduled"],
                       after["queue_depth"] - before["queue_depth"]))

    n1.on_packet(0, handler)
    n0.send("n1", payload="request", size=64)
    env.run()
    # Synchronous: the channel is held when send() returns, and the one
    # event queued is the claim, firing at tx-complete.
    assert inside == [(True, None, 1, 1, 1)]
    assert env.active_process is None
    # Queued start, for contrast: no active process, nothing claimed,
    # the one queued event is the start.
    before = env.stats()
    n1.send("n0", payload="late", size=64)
    after = env.stats()
    assert back.count == 0
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
    """A granted claim's ``_value`` is the claim itself — on a carrier
    that cycle would keep packet, route and spans alive until the next
    cyclic collection.  Bursts, so most carriers were queued claims."""
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


# -- the counters count --------------------------------------------------------

def _contended_claims(env):
    """Fused and plain claims of mixed priority on one channel, with a
    withdrawal; stopped mid-queue, then drained."""
    channel = PriorityResource(env, capacity=1)

    def claimant(env, i):
        yield env.timeout(0.01 * (i % 3))
        claim = PriorityRequest(channel, i % 2,
                                grant_delay=0.02 if i % 3 else 0.0)
        if i == 4:
            claim.cancel()
            return
        yield claim
        yield env.timeout(0.005)
        channel.release(claim)

    for i in range(9):
        env.process(claimant(env, i))
    env.run(until=0.05)
    assert channel.queue
    env.run()
    assert channel.count == 0 and not channel.queue


def _fast_puts(env):
    """put_fast into an empty store, a waiting getter, a full store."""
    store = Store(env, capacity=2)
    got = []

    def producer(env):
        for i in range(6):
            store.put_fast(i)
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


def test_a_packet_costs_two_queued_events_per_hop_and_nothing_else():
    """The clean storm: 240 packets over 3 hops each.  The rest is the
    storm's own processes: 12 starts, 6 sender exits, 240 send timeouts,
    240 receives and the ``until`` stop."""
    stats = _storm()["env"]
    assert stats["events_processed"] == 2 * 240 * 3 + 499
    assert stats["events_scheduled"] == stats["events_processed"]


@pytest.mark.parametrize("scenario", [
    lambda env: _storm(env=env),
    lambda env: _storm(loss=0.05, env=env),
    lambda env: _storm(schedule=_flap_and_burst(), env=env),
    _lan_chat, _contended_claims, _fast_puts, _raising_handler,
], ids=["clean", "loss", "faults", "lan-chat", "claims", "put_fast",
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
# (start, grant, transmission, propagation, end).  It tells a downed
# link from a loss draw but not baseline loss from impairment, so
# reasons are compared at that granularity.
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


def _model_carry(env, topo, hosts, send, outcomes, drops):
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
        channel = link.channel(node)
        claim = channel.request(priority)
        yield claim
        yield env.timeout(link.transmission_delay(wire))
        channel.release(claim)
        if link.drops_packet():
            reason = "loss" if link.up else "link-down"
            link.stats.drops += 1
            outcomes[index] = ("dropped", reason, env.now, hops)
            drops[reason] = drops.get(reason, 0) + 1
            return
        yield env.timeout(link.propagation_delay())
        link.stats.packets += 1
        link.stats.bytes += wire
        hops += 1
        node = link.other_end(node)
    if dst not in hosts:
        outcomes[index] = ("dropped", "no-host", env.now, hops)
        drops["no-host"] = drops.get("no-host", 0) + 1
        return
    outcomes[index] = ("delivered", None, env.now, hops)


def _world(spec, launch_for):
    """Build ``spec``'s topology and schedule, sending through
    ``launch_for(env, topo, hosts, outcomes)``; returns everything
    comparable."""
    env = Environment()
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
        "drops": drop_book(),
        "links": {link.label: (link.stats.packets, link.stats.bytes,
                               link.stats.drops, link._rng.getstate())
                  for link in links},
    }


def _through_network(env, topo, hosts, outcomes):
    network = Network(env, topo)

    def landed(kind):
        def record(packet, reason=None):
            if reason == "impairment":
                reason = "loss"
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

    def drop_book():
        book = network.drop_stats()
        impaired = book.pop("impairment", 0)
        if impaired:
            book["loss"] = book.get("loss", 0) + impaired
        return book
    return launch, drop_book


def _through_model(env, topo, hosts, outcomes):
    drops = {}

    def launch(send):
        env.process(_model_carry(env, topo, hosts, send, outcomes, drops))
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


@settings(max_examples=150, deadline=None)
@given(_specs())
def test_carrier_matches_the_generator_model(spec):
    """Per-packet fate (delivered/dropped, why, when, after how many
    hops), every link's books and RNG state, and the drop totals."""
    carried = _world(spec, _through_network)
    modelled = _world(spec, _through_model)
    assert carried["outcomes"] == modelled["outcomes"]
    assert carried["links"] == modelled["links"]
    assert carried["drops"] == modelled["drops"]
    assert len(carried["outcomes"]) == sum(map(len, spec["bursts"].values()))
