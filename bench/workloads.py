"""The seven benchmark workloads.

Every workload is a class with the same three phases, so the child
process (``bench/child.py``) can time them separately:

* ``__init__(seed, scale)`` — *set-up* (three workloads also take the
  size parameters their scaling sweep varies): generate every random
  input from ``seed`` (gaps, positions, think times, the fault
  schedule), build the topology/platform/documents and create the
  simulated users' processes.  The program under test only ever sees
  these generated inputs.
* the timed region, driven by the child: ``env.run(...)`` up to
  ``until`` (``None``: until the event queue drains), in timing slices
  of ``STEP`` simulated seconds.
* ``finish()`` — untimed: read public counters/attributes, compute the
  latency samples, check the correctness gate and return an
  :class:`Outcome`.

Only public ``repro.*`` APIs are driven, and nothing is imported from
``benchmarks/`` or ``repro.analysis.workloads`` — later PRs may change
those freely.  Random inputs come from stdlib ``random.Random`` seeded
with a string, so they do not depend on the library's own stream
derivation either.

``scale`` multiplies each simulated user's operation count (or the
session length); 1.0 is the frozen benchmark size, the self-tests use a
tiny fraction.
"""

from __future__ import annotations

import contextlib
import random
from typing import Any, Dict, List, Tuple

from repro.concurrency.locks import (
    EXCLUSIVE,
    HARD,
    NOTIFICATION,
    SHARED,
    STYLES,
    LockTable,
)
from repro.concurrency.store import SharedStore
from repro.core.platform import CooperativePlatform
from repro.errors import ReproError
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultPolicies,
    FaultSchedule,
    RetryPolicy,
)
from repro.groups import MonitoredMembership, ProcessGroup
from repro.net import Network, ReliableChannel, Topology, wan
from repro.node import ODPRuntime
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import get_metrics
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracer import Tracer, use_tracer
from repro.qos.params import QoSParameters
from repro.sessions.telepointers import TelepointerService
from repro.sim import Environment


def _rng(seed: int, *stream: Any) -> random.Random:
    """A named input stream: same (seed, stream) ⇒ same draws."""
    return random.Random("{}:{}".format(
        seed, ":".join(str(part) for part in stream)))


def _count(base: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(base * scale)))


class Outcome:
    """What one execution of a workload produced.

    ``attempted``/``failed`` count the simulated users' *logical*
    operations and those the system lost or left unfinished at the
    drain; ``tries``/``try_failures`` count individual attempts and the
    ones refused, revoked, timed out, given up, late or dropped (the
    two differ only where users or policies retry).  ``latencies`` are
    simulated seconds.  ``domain`` is the JSON-able result the digest
    covers; ``violations`` lists every correctness-gate failure.
    """

    def __init__(self, env: Environment) -> None:
        self.attempted = 0
        self.failed = 0
        self.tries = 0
        self.try_failures = 0
        self.latencies: List[float] = []
        self.counts: Dict[str, float] = {}
        self.sim_now = env.now
        self.events = env.events_processed
        self.domain: Dict[str, Any] = {}
        self.violations: List[str] = []

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)

    def read_network(self, network: Network) -> None:
        counters = network.counters
        drops = network.drop_stats()
        self.counts.update({
            "net.packets_sent": counters["sent"],
            "net.packets_delivered": counters["delivered"],
            "net.packets_dropped": counters["dropped"],
            "net.link_bytes": network.total_link_bytes(),
            "faults.drops_no_route": drops.get("no-route", 0),
            "faults.drops_impairment": drops.get("impairment", 0),
            "faults.drops_link_down": drops.get("link-down", 0),
        })


# -- packet-storm ------------------------------------------------------------


class PacketStorm:
    """Open-loop cross-site datagram storm on a WAN mesh.

    18 senders each emit ``packets`` datagrams of 64 to 960 bytes (512
    on average) at exponential 2 ms gaps to rotating hosts on other
    sites (three hops each).  No layer above ``net`` runs, so a kernel
    or carry change shows here undiluted.
    """

    name = "packet-storm"
    STEP = 0.025
    until = None          # run until the network drains
    PACKETS = 2400
    GAP = 0.002
    PAYLOAD = (64, 960)

    def __init__(self, seed: int, scale: float = 1.0, sites: int = 6,
                 hosts: int = 3) -> None:
        packets = _count(self.PACKETS, scale, floor=20)
        self.env = env = Environment()
        self.network = Network(env, wan(
            env, sites=sites, hosts_per_site=hosts, site_latency=0.004,
            seed=seed))
        names = ["site{}.host{}".format(i, j)
                 for i in range(sites) for j in range(hosts)]
        for index, name in enumerate(names):
            site = name.split(".", 1)[0]
            peers = [peer for peer in
                     (names[(index + k) % len(names)]
                      for k in range(1, len(names)))
                     if not peer.startswith(site + ".")]
            rng = _rng(seed, "storm", index)
            plan = [(rng.expovariate(1.0 / self.GAP),
                     rng.randint(*self.PAYLOAD)) for _ in range(packets)]
            env.process(self._sender(self.network.host(name), peers, plan))

    def _sender(self, host, peers, plan):
        timeout = self.env.timeout
        send = host.send
        fanout = len(peers)
        for index, (gap, size) in enumerate(plan):
            yield timeout(gap)
            send(peers[index % fanout], size=size)

    def finish(self) -> Outcome:
        out = Outcome(self.env)
        out.read_network(self.network)
        sent = out.counts["net.packets_sent"]
        delivered = out.counts["net.packets_delivered"]
        dropped = out.counts["net.packets_dropped"]
        out.attempted = out.tries = sent
        out.failed = out.try_failures = sent - delivered
        out.latencies = list(self.network.delivery_latency.values)
        out.require(delivered + dropped == sent,
                    "delivered + dropped != sent")
        out.require(dropped == 0, "{} packets dropped".format(dropped))
        out.require(len(out.latencies) == delivered,
                    "latency samples != delivered")
        out.domain = {"sent": sent, "delivered": delivered,
                      "dropped": dropped}
        return out


# -- lock-store --------------------------------------------------------------


class LockStore:
    """Closed-loop contended editing under all four lock styles.

    No network at all: one :class:`LockTable` per style, six sections
    of a :class:`SharedStore` each; writers and readers think, lock a
    section, edit/read for a drawn time and release — 30 % of writers
    wander off while still holding, which is what tickle locks are for.
    A ``net`` optimisation must not move this workload.
    """

    name = "lock-store"
    STEP = 10.0
    until = None          # run until every actor finished its rounds
    ROUNDS = 560
    WRITERS = 15          # per style
    READERS = 15          # per style
    SECTIONS = 6
    THINK = 1.0
    IDLE_PROBABILITY = 0.3
    IDLE_TIME = 8.0
    TICKLE_GRACE = 2.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.rounds = _count(self.ROUNDS, scale)
        self.env = env = Environment()
        self.tables: Dict[str, LockTable] = {}
        self.stores: Dict[str, SharedStore] = {}
        self.latencies: List[float] = []
        self.completed = 0
        self.actors = 0
        keys = ["section-{}".format(i) for i in range(self.SECTIONS)]
        for style in STYLES:
            table = self.tables[style] = LockTable(
                env, style=style, tickle_grace=self.TICKLE_GRACE)
            store = self.stores[style] = SharedStore(
                "doc-" + style, keep_history=True)
            for key in keys:
                store.create(key, "")
            for index in range(self.WRITERS):
                rng = _rng(seed, "writer", style, index)
                plan = [(rng.expovariate(1.0 / self.THINK),
                         keys[rng.randrange(self.SECTIONS)],
                         rng.uniform(0.5, 1.5),
                         rng.random() < self.IDLE_PROBABILITY)
                        for _ in range(self.rounds)]
                env.process(self._writer(
                    "{}-writer-{}".format(style, index), table, store,
                    plan))
            for index in range(self.READERS):
                rng = _rng(seed, "reader", style, index)
                plan = [(rng.expovariate(1.0 / self.THINK),
                         keys[rng.randrange(self.SECTIONS)],
                         rng.uniform(0.25, 0.75))
                        for _ in range(self.rounds)]
                env.process(self._reader(
                    "{}-reader-{}".format(style, index), table, store,
                    plan))
            self.actors += self.WRITERS + self.READERS

    def _writer(self, name, table, store, plan):
        env = self.env
        notify = table.style == NOTIFICATION
        for round_no, (think, key, edit, idle) in enumerate(plan):
            yield env.timeout(think)
            asked = env.now
            grant = yield table.acquire(key, name, EXCLUSIVE)
            granted = env.now
            yield env.timeout(edit)
            store.write(key, (name, round_no, granted), writer=name,
                        at=env.now)
            grant.touch()
            if notify:
                table.notify_write(key, name)
            self.latencies.append(env.now - asked)
            self.completed += 1
            if idle:
                yield env.timeout(self.IDLE_TIME)
            if not grant.revoked:
                grant.release()

    def _reader(self, name, table, store, plan):
        env = self.env
        for think, key, look in plan:
            yield env.timeout(think)
            asked = env.now
            grant = yield table.acquire(key, name, SHARED)
            yield env.timeout(look)
            store.read(key, reader=name, at=env.now)
            self.latencies.append(env.now - asked)
            self.completed += 1
            if not grant.revoked:
                grant.release()

    def finish(self) -> Outcome:
        out = Outcome(self.env)
        totals = {key: sum(table.counters[key]
                           for table in self.tables.values())
                  for key in ("requests", "grants", "waits", "takeovers")}
        writes = sum(store.writes for store in self.stores.values())
        reads = sum(store.reads for store in self.stores.values())
        out.attempted = self.actors * self.rounds
        out.failed = out.attempted - self.completed
        out.tries = totals["grants"]
        out.try_failures = totals["takeovers"]
        out.latencies = self.latencies
        out.counts.update({
            "concurrency.lock_requests": totals["requests"],
            "concurrency.lock_waits": totals["waits"],
            "concurrency.lock_takeovers": totals["takeovers"],
            "concurrency.store_writes": writes,
        })
        out.require(writes + reads == out.attempted,
                    "rounds unaccounted for: {} of {}".format(
                        writes + reads, out.attempted))
        out.require(totals["grants"] == totals["requests"],
                    "requests never granted")
        # Hard locks must serialise writers: each write's hold began
        # (value[2] = granted at) no earlier than the previous write
        # to that section finished.
        overlaps = 0
        last_write: Dict[str, float] = {}
        for at, key, value, _version, _writer in \
                self.stores[HARD].history():
            if value[2] < last_write.get(key, 0.0):
                overlaps += 1
            last_write[key] = at
        out.require(overlaps == 0,
                    "{} overlapping exclusive holds under hard "
                    "locks".format(overlaps))
        out.domain = {
            "counters": {style: table.counters.as_dict()
                         for style, table in self.tables.items()},
            "writes": writes, "reads": reads,
            "versions": {style: sorted(
                (key, version) for key, (_value, version)
                in store.snapshot().items())
                for style, store in self.stores.items()},
        }
        return out


# -- edit-session ------------------------------------------------------------


class EditSession:
    """Bursty co-authoring on an OT shared document across a WAN.

    Each editor types bursts of single-character edits (every fifth a
    delete) 40 ms apart on average, pausing 2 s on average between
    bursts (never under 1 s, so one burst's backlog drains before the
    next and the latency tail is the in-burst queue, not a rare
    overlap); the sequencer orders
    them and every replica transforms and applies every remote edit.
    The latency is the paper's *notification time*: local edit →
    applied at each remote replica.
    """

    name = "edit-session"
    STEP = 0.05
    until = None          # run until every replica has applied every edit
    BURSTS = 8
    BURST_CHARS = 30
    PAUSE = (1.0, 1.0)    # at least 1 s, then exponential with mean 1 s
    DOC_CHARS = 2000

    def __init__(self, seed: int, scale: float = 1.0, editors: int = 12,
                 gap: float = 0.04) -> None:
        bursts = _count(self.BURSTS, scale, floor=1)
        sites = (editors + 1) // 2
        self.platform = CooperativePlatform(
            sites=sites, hosts_per_site=2, site_latency=0.03, seed=seed)
        self.env = env = self.platform.env
        members = self.platform.host_names()[:editors]
        session = self.platform.create_session("paper", members,
                                               floor=None)
        text_rng = _rng(seed, "text")
        initial = "".join(text_rng.choice("abcdefghij ")
                          for _ in range(self.DOC_CHARS))
        self.doc = session.shared_document("draft", initial=initial)
        self.edit_times: Dict[str, List[float]] = {}
        self.planned = 0
        for index, member in enumerate(members):
            rng = _rng(seed, "editor", index)
            least, mean = self.PAUSE
            plan = [(least + rng.expovariate(1.0 / mean),
                     [(rng.random(), k % 5 == 4, rng.choice("xyz "),
                       gap * rng.uniform(0.6, 1.4))
                      for k in range(self.BURST_CHARS)])
                    for _ in range(bursts)]
            self.planned += bursts * self.BURST_CHARS
            times = self.edit_times[member] = []
            env.process(self._editor(self.doc.client(member), plan,
                                     times))

    def _editor(self, client, plan, times):
        env = self.env
        for pause, keys in plan:
            yield env.timeout(pause)
            for where, delete, char, gap in keys:
                length = len(client.text)
                if delete and length:
                    client.delete(int(where * length))
                else:
                    client.insert(int(where * (length + 1)), char)
                times.append(env.now)
                yield env.timeout(gap)

    def finish(self) -> Outcome:
        out = Outcome(self.env)
        out.read_network(self.platform.network)
        doc = self.doc
        history = doc.server.core.history
        # Revision i was the k-th batch its site sent; one edit() call
        # is one batch and a site's batches are sequenced in order, so
        # that is also the site's k-th local edit.
        seen: Dict[str, int] = {}
        origin: List[Tuple[str, float]] = []
        for site, _ops in history:
            k = seen.get(site, 0)
            seen[site] = k + 1
            origin.append((site, self.edit_times[site][k]))
        missing = 0
        remote_applies = 0
        for member, client in doc.clients.items():
            applied = [at for at, kind in client.applied_log
                       if kind == "remote"]
            expected = [made for site, made in origin if site != member]
            remote_applies += len(applied)
            missing += abs(len(expected) - len(applied))
            out.latencies.extend(
                at - made for at, made in zip(applied, expected))
        local = sum(len(times) for times in self.edit_times.values())
        others = max(1, len(doc.clients) - 1)
        unsequenced = self.planned - len(history)
        out.attempted = out.tries = self.planned
        out.failed = out.try_failures = \
            unsequenced + -(-missing // others)
        out.counts.update({
            "concurrency.ot_local_edits": local,
            "concurrency.ot_server_receives": len(history),
            "concurrency.ot_remote_applies": remote_applies,
        })
        texts = set(doc.texts().values())
        out.require(doc.converged, "document did not converge")
        out.require(len(texts) == 1 and doc.server.core.text in texts,
                    "replica texts differ")
        out.require(local == self.planned, "edits not performed")
        out.require(unsequenced == 0 and missing == 0,
                    "{} edits unsequenced, {} remote applies "
                    "missing".format(unsequenced, missing))
        out.require(all(lat > 0 for lat in out.latencies),
                    "edit applied remotely before it was made")
        out.domain = {"revision": len(history),
                      "text": doc.server.core.text,
                      "remote_applies": remote_applies}
        return out


# -- group-chat --------------------------------------------------------------


class GroupChat:
    """Causally ordered N-to-N chat with heartbeat-monitored membership.

    Every member broadcasts 200-byte messages at exponential 0.1 s gaps
    over a jittery WAN, so messages overtake each other and the causal
    hold-back buffer works; every member heartbeats the coordinator.
    The only workload where ``groups`` is a large share.
    """

    name = "group-chat"
    STEP = 0.1
    BROADCASTS = 120
    GAP = 0.1
    SIZE = 200
    DRAIN = 2.0

    def __init__(self, seed: int, scale: float = 1.0,
                 members: int = 16) -> None:
        broadcasts = _count(self.BROADCASTS, scale)
        self.env = env = Environment()
        sites = (members + 1) // 2
        self.network = Network(env, wan(
            env, sites=sites, hosts_per_site=2, site_latency=0.01,
            jitter=0.02, seed=seed))
        names = ["site{}.host{}".format(i, j)
                 for i in range(sites) for j in range(2)][:members]
        self.group = ProcessGroup(self.network, "chat", ordering="causal")
        self.delivery_times: Dict[str, List[float]] = {}
        self.latencies: List[float] = []
        for name in names:
            endpoint = self.group.join(name)
            times = self.delivery_times[name] = []
            endpoint.on_deliver(self._on_deliver(name, times))
        self.membership = MonitoredMembership(self.group, interval=0.5)
        self.members = names
        self.sent = 0
        self.planned = broadcasts * members
        last_send = 0.0
        for index, name in enumerate(names):
            rng = _rng(seed, "chat", index)
            gaps = [rng.expovariate(1.0 / self.GAP)
                    for _ in range(broadcasts)]
            last_send = max(last_send, sum(gaps))
            env.process(self._member(self.group.endpoint(name), gaps))
        self.until = last_send + self.DRAIN

    def _on_deliver(self, name, times):
        env = self.env
        latencies = self.latencies

        def deliver(message):
            now = env.now
            times.append(now)
            if message.sender != name:
                latencies.append(now - message.sent_at)
        return deliver

    def _member(self, endpoint, gaps):
        env = self.env
        for index, gap in enumerate(gaps):
            yield env.timeout(gap)
            endpoint.broadcast(index, size=self.SIZE)
            self.sent += 1

    def finish(self) -> Outcome:
        out = Outcome(self.env)
        out.read_network(self.network)
        members = self.members
        endpoints = [self.group.endpoints.get(name) for name in members]
        deliveries = 0
        batches = 0
        disorder = 0
        for name, endpoint in zip(members, endpoints):
            if endpoint is None:
                continue
            log = endpoint.delivered_log
            deliveries += len(log)
            # One on_receive() call that released messages delivers
            # them all at one instant, so runs of equal delivery times
            # are the receives that returned something.
            previous = None
            for at in self.delivery_times[name]:
                if at != previous:
                    batches += 1
                    previous = at
            # Causal order: a message is deliverable only when it is
            # its sender's next and everything in its vector-clock
            # past has been delivered here already.
            seen: Dict[str, int] = {}
            for message in log:
                sender = message.sender
                for process, time in message.vector.items():
                    have = seen.get(process, 0)
                    if (have != time - 1) if process == sender \
                            else (have < time):
                        disorder += 1
                seen[sender] = seen.get(sender, 0) + 1
        expected = self.planned * len(members)
        out.attempted = out.tries = expected
        out.failed = out.try_failures = expected - deliveries
        out.latencies = self.latencies
        out.counts.update({
            "groups.broadcasts": self.sent,
            "groups.receives": deliveries,
            "groups.holdback_ratio":
                (deliveries - batches) / deliveries if deliveries else 0.0,
            "groups.view_changes": self.group.view.view_id,
        })
        out.require(self.sent == self.planned, "broadcasts not sent")
        out.require(len(self.group.view) == len(members),
                    "a live member was suspected out of the view")
        out.require(deliveries == expected,
                    "{} of {} deliveries".format(deliveries, expected))
        out.require(disorder == 0,
                    "{} causal-order violations".format(disorder))
        out.domain = {"deliveries": deliveries, "batches": batches,
                      "view": list(self.group.view.members),
                      "orders": [[(m.sender, m.payload) for m in
                                  endpoint.delivered_log][-20:]
                                 for endpoint in endpoints if endpoint]}
        return out


# -- media-conference --------------------------------------------------------


class MediaConference:
    """A desktop conference: QoS video flows, floor, slides, pointers.

    Eight negotiated 25 fps flows run under QoS monitors while the
    members queue FCFS for the floor; the speaker writes slides to the
    session store (each write fans out through workspace awareness)
    and everybody's telepointer moves every 50 ms.  Timer- and
    process-heavy rather than queue-heavy.
    """

    name = "media-conference"
    STEP = 0.5
    DURATION = 90.0
    SITES = 6
    FLOWS = 8
    RATE = 25.0
    FRAME_BYTES = 4000
    WAN_JITTER = 0.004
    POINTER_PERIOD = 0.05
    SLIDES = 3
    SLIDE_TIME = 2.0
    THINK = 10.0
    DRAIN = 1.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.duration = max(4.0, self.DURATION * scale)
        self.platform = CooperativePlatform(sites=self.SITES,
                                            hosts_per_site=2, seed=seed)
        self.env = env = self.platform.env
        for link in self.platform.topology.links():
            if link.a.endswith(".router") and link.b.endswith(".router"):
                link.jitter = self.WAN_JITTER
        members = self.platform.host_names()
        self.members = members
        self.session = self.platform.create_session(
            "review", members, floor="fcfs", awareness_latency=0.01)
        self.seen = 0
        for member in members:
            self.session.workspace.watch(member, self._on_awareness)
        self.pointers = TelepointerService(
            env, update_interval=self.POINTER_PERIOD, latency=0.02)
        for member in members:
            self.pointers.join(member, on_move=self._on_pointer)
        self.flows = []
        rng = _rng(seed, "flows")
        for index in range(self.FLOWS):
            src = members[(2 * index) % len(members)]
            dst = members[(2 * index + 5) % len(members)]
            flow = self.platform.open_media_flow(
                src, dst, rate=self.RATE, frame_size=self.FRAME_BYTES,
                desired=QoSParameters(
                    throughput=self.RATE * self.FRAME_BYTES * 8,
                    latency=0.2, jitter=0.1, loss=0.05))
            self.flows.append(flow)
            # Cameras are not frame-locked to each other.
            env.process(self._start_flow(
                flow, rng.uniform(0.0, 1.0 / self.RATE)))
        for index, member in enumerate(members):
            rng = _rng(seed, "member", index)
            thinks = [rng.expovariate(1.0 / self.THINK)
                      for _ in range(int(self.duration / self.SLIDE_TIME)
                                     + 2)]
            env.process(self._speaker(member, thinks))
            ticks = int(self.duration / self.POINTER_PERIOD)
            path = [(rng.random(), rng.random()) for _ in range(ticks)]
            env.process(self._pointer(member, path))
        self.until = self.duration + 1.0 + self.DRAIN

    def _on_awareness(self, event) -> None:
        self.seen += 1

    def _on_pointer(self, member, x, y) -> None:
        pass

    def _start_flow(self, flow, offset):
        yield self.env.timeout(offset)
        flow.start(self.duration)

    def _speaker(self, member, thinks):
        env = self.env
        floor = self.session.session.floor
        store = self.session.session.store
        slide = 0
        for think in thinks:
            yield env.timeout(think)
            if env.now >= self.duration:
                return
            yield floor.request(member)
            for _ in range(self.SLIDES):
                slide += 1
                store.write("slide", (member, slide), writer=member,
                            at=env.now)
                yield env.timeout(self.SLIDE_TIME)
            floor.release(member)

    def _pointer(self, member, path):
        env = self.env
        move = self.pointers.move
        for x, y in path:
            move(member, x, y)
            yield env.timeout(self.POINTER_PERIOD)

    def finish(self) -> Outcome:
        out = Outcome(self.env)
        out.read_network(self.platform.network)
        sent = played = missed = received = recorded = 0
        windows_ok = windows_bad = 0
        for flow in self.flows:
            sent += flow.binding.counters["frames_sent"]
            recorded += flow.binding.counters["frames_received"]
            received += flow.sink.counters["received"]
            played += flow.sink.counters["played"]
            missed += flow.sink.deadline_misses
            windows_ok += flow.monitor.counters["windows_ok"]
            windows_bad += flow.monitor.counters["violations"]
            out.latencies.extend(flow.sink.frame_latency.values)
        lost = sent - received
        floor = self.session.session.floor
        bus = self.session.session.awareness
        out.attempted = out.tries = sent
        out.failed = out.try_failures = sent - played
        published = bus.counters["published"]
        out.counts.update({
            "sessions.floor_requests": floor.counters["requests"],
            "sessions.floor_turns": len(floor.turns),
            "sessions.pointer_moves": self.pointers.counters["moves"],
            "sessions.pointer_deliveries":
                self.pointers.counters["deliveries"],
            "awareness.published": published,
            "awareness.delivered": bus.counters["delivered"],
            "awareness.fanout":
                bus.counters["delivered"] / published if published else 0.0,
            "streams.frames_sent": sent,
            "streams.frames_played": played,
            "streams.deadline_misses": missed,
            "qos.negotiations": self.platform.qos.counters["negotiations"],
            "qos.frames_recorded": recorded,
            "qos.windows_ok": windows_ok,
            "qos.windows_violated": windows_bad,
            "concurrency.store_writes": self.session.session.store.writes,
        })
        out.require(sent > 0, "no frames sent")
        out.require(played + missed + lost == sent,
                    "played + missed + lost != sent")
        out.require(self.seen == bus.counters["delivered"],
                    "awareness deliveries not seen by watchers")
        out.require(floor.counters["grants"] == len(floor.turns),
                    "floor grants != turns")
        out.domain = {"sent": sent, "played": played, "missed": missed,
                      "lost": lost, "turns": list(floor.turns),
                      "windows": [windows_ok, windows_bad],
                      "awareness": bus.counters.as_dict(),
                      "pointers": self.pointers.counters.as_dict()}
        return out


# -- faulty-rpc --------------------------------------------------------------


class FaultyRpc:
    """Closed-loop invocation and reliable channels through a fault cycle.

    Nine clients invoke an object on ``n0`` through the full recovery
    bundle (retry with jittered backoff, deadline budget, circuit
    breaker) while four reliable channels stream at 10 msg/s; a
    generated schedule cycles link flaps, a 30 % loss burst, a 4×
    latency storm and a partition.  A user whose invocation fails
    thinks and tries again, so every logical operation completes once
    the faults lift; the failed *tries* are what ``ok_ratio`` counts.
    Same ``net``/``sim`` as the storm, used differently: route
    invalidation, retransmission, timeouts.
    """

    name = "faulty-rpc"
    observed = False
    STEP = 0.25
    CYCLES = 2
    CYCLE = 26.0          # simulated seconds per fault cycle
    DRAIN = 6.0
    NODES = 10
    CHORDS = ((0, 5), (2, 7), (4, 9), (1, 6))
    THINK = 0.03
    RPC_TIMEOUT = 0.4
    CHANNELS = ((1, 6), (2, 7), (3, 8), (4, 9))
    CHAN_PERIOD = 0.1
    CHAN_BYTES = 400

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        # Whole cycles at full length; below one cycle the cycle is
        # compressed instead, so a tiny run still meets every fault.
        self.cycles = max(1, int(round(self.CYCLES * scale)))
        self.stretch = min(1.0, self.CYCLES * scale)
        self.active = self.cycles * self.CYCLE * self.stretch
        self._ambient = contextlib.ExitStack()
        self.tracer = self.flight = self.timeline = None
        if self.observed:
            self.tracer = Tracer()
            self.flight = FlightRecorder(ring=1 << 16)
            self._ambient.enter_context(use_tracer(self.tracer))
            self._ambient.enter_context(use_flight(self.flight))
        self.env = env = Environment()
        if self.observed:
            self.timeline = TimelineRecorder(env, resolution=1.0)
        nodes = ["n{}".format(i) for i in range(self.NODES)]
        pairs = [(i, (i + 1) % self.NODES) for i in range(self.NODES)]
        pairs += list(self.CHORDS)
        topology = Topology(env)
        for a, b in pairs:
            topology.add_link(nodes[a], nodes[b], latency=0.005,
                              bandwidth=1e7, jitter=0.002,
                              rng=_rng(seed, "link", a, b))
        self.network = Network(env, topology)
        self.breaker = CircuitBreaker(env, failure_threshold=4,
                                      reset_timeout=1.0)
        policies = FaultPolicies(
            retry=RetryPolicy(base=0.05, multiplier=2.0, cap=0.4,
                              jitter=0.2, max_retries=3,
                              rng=_rng(seed, "rpc-backoff")),
            breaker=self.breaker, deadline=3.0)
        self.runtime = ODPRuntime(self.network, registry_node="n0",
                                  policies=policies)
        server = self.runtime.nucleus("n0")
        self.board = server.create_object(
            server.create_capsule("board-capsule"), "board",
            state={"hits": 0})
        self.board.operation("hit", self._hit)
        self.invokes = {"started": 0, "ok": 0, "failed": 0,
                        "unfinished": 0}
        self.sends = {"started": 0, "ok": 0, "failed": 0,
                      "unfinished": 0}
        self.errors: Dict[str, int] = {}
        self.latencies: List[float] = []
        for index in range(1, self.NODES):
            rng = _rng(seed, "client", index)
            env.process(self._client(
                self.runtime.nucleus(nodes[index]), rng))
        self.channels: List[ReliableChannel] = []
        self.channel_received = 0
        for index, (a, b) in enumerate(self.CHANNELS):
            source = ReliableChannel(
                self.network.host(nodes[a]), port=7,
                backoff=RetryPolicy(base=0.1, multiplier=2.0, cap=0.8,
                                    jitter=0.25, max_retries=6,
                                    rng=_rng(seed, "chan-backoff", index)))
            sink = ReliableChannel(self.network.host(nodes[b]), port=7)
            self.channels += [source, sink]
            env.process(self._channel_sender(source, nodes[b]))
            env.process(self._channel_drain(sink))
        self.schedule = self._generate_schedule(seed, nodes, pairs)
        self.injector = FaultInjector(env, self.network, self.schedule)
        self.until = self.active + self.DRAIN

    def close(self) -> None:
        """Restore the ambient tracer/flight recorder (observed runs)."""
        if self.timeline is not None:
            self.timeline.finish()
        if self.flight is not None:
            self.flight.finish()
        self._ambient.close()

    @staticmethod
    def _hit(caller, state, args):
        state["hits"] += 1
        return state["hits"]

    def _generate_schedule(self, seed, nodes, pairs) -> FaultSchedule:
        """Per cycle: a link flap, a 30 % loss burst on five links, a
        4x latency storm everywhere and a partition that isolates the
        server.  Which link flaps, which links lose packets and the
        exact onsets are drawn from the seed."""
        rng = _rng(seed, "faults")
        schedule = FaultSchedule()
        links = [(nodes[a], nodes[b]) for a, b in pairs]
        stretch = self.stretch

        def at(cycle, offset):
            return (cycle * self.CYCLE + offset
                    + rng.uniform(0, 0.5)) * stretch

        for cycle in range(self.cycles):
            a, b = links[rng.randrange(self.NODES)]
            schedule.link_flap(at(cycle, 2.0), a, b, count=6,
                               period=0.5 * stretch)
            schedule.loss_burst(at(cycle, 8.0), 0.3, 4.0 * stretch,
                                links=rng.sample(links, 5))
            schedule.latency_storm(at(cycle, 14.0), 4.0, 4.0 * stretch)
            cut = at(cycle, 20.0)
            schedule.partition(cut, [nodes[:1], nodes[1:]],
                               name="split-{}".format(cycle),
                               heal_at=cut + 3.0 * stretch)
        return schedule

    def _client(self, nucleus, rng):
        env = self.env
        invokes = self.invokes
        oid = self.board.oid
        while env.now < self.active:
            # One logical operation: think, invoke, and on a typed
            # failure think again and retry until it goes through.
            invokes["started"] += 1
            while True:
                yield env.timeout(rng.expovariate(1.0 / self.THINK))
                began = env.now
                try:
                    yield nucleus.invoke(oid, "hit", None,
                                         timeout=self.RPC_TIMEOUT)
                except ReproError as error:
                    invokes["failed"] += 1
                    kind = type(error).__name__
                    self.errors[kind] = self.errors.get(kind, 0) + 1
                    if env.now >= self.until - 1.0:
                        invokes["unfinished"] += 1
                        return
                    continue
                invokes["ok"] += 1
                self.latencies.append(env.now - began)
                break

    def _channel_sender(self, channel, dst):
        env = self.env
        sends = self.sends
        number = 0
        while env.now < self.active:
            yield env.timeout(self.CHAN_PERIOD)
            number += 1
            sends["started"] += 1
            while True:
                try:
                    yield channel.send(dst, payload=number,
                                       size=self.CHAN_BYTES)
                except ReproError:
                    sends["failed"] += 1
                    if env.now >= self.until - 1.0:
                        sends["unfinished"] += 1
                        return
                    continue
                sends["ok"] += 1
                break

    def _channel_drain(self, channel):
        while True:
            yield channel.receive()
            self.channel_received += 1

    def finish(self) -> Outcome:
        self.close()
        out = Outcome(self.env)
        out.read_network(self.network)
        invokes, sends = self.invokes, self.sends
        metrics = get_metrics()
        out.attempted = invokes["started"] + sends["started"]
        ok = invokes["ok"] + sends["ok"]
        out.failed = out.attempted - ok
        out.tries = ok + invokes["failed"] + sends["failed"]
        out.try_failures = invokes["failed"] + sends["failed"]
        out.latencies = self.latencies
        nuclei = self.runtime.nuclei.values()
        inflight = sum(nucleus.rpc.inflight() for nucleus in nuclei) \
            + sum(channel.inflight() for channel in self.channels)
        retransmissions = sum(c.retransmissions for c in self.channels)
        chan_tries = sends["ok"] + sends["failed"]
        out.counts.update({
            "net.chan_sends": chan_tries,
            "net.chan_retransmissions": retransmissions,
            "net.chan_gave_up": sum(c.gave_up for c in self.channels),
            "net.retransmit_ratio":
                retransmissions / chan_tries if chan_tries else 0.0,
            "net.rpc_calls": sum(n.rpc.calls_served for n in nuclei),
            "net.rpc_retries": metrics.counter_total("rpc.retries"),
            "node.invocations": metrics.counter_total("node.invocations"),
            "node.invoke_errors": invokes["failed"],
            "faults.injected": len(self.injector.log),
            "faults.breaker_rejected": self.breaker.rejected,
        })
        if self.observed:
            out.counts.update({
                "obs.spans": len(self.tracer.spans),
                "obs.flight_records": self.flight.recorded,
                "obs.timeline_windows": self.timeline.flushed,
            })
        out.require(inflight == 0,
                    "{} operations still in flight after the "
                    "drain".format(inflight))
        out.require(self.board.state["hits"] >= invokes["ok"],
                    "object hits < successful invocations")
        out.require(len(self.injector.log) == len(self.schedule),
                    "fault schedule not fully injected")
        out.require(self.schedule.balanced(), "fault schedule unbalanced")
        out.require(invokes["unfinished"] + sends["unfinished"]
                    == out.failed, "operations unaccounted for")
        out.domain = {"invokes": invokes, "sends": sends,
                      "errors": dict(sorted(self.errors.items())),
                      "hits": self.board.state["hits"],
                      "received": self.channel_received,
                      "breaker_rejected": self.breaker.rejected,
                      "drops": dict(sorted(
                          self.network.drop_stats().items())),
                      "faults": len(self.injector.log)}
        return out


class FaultyRpcObserved(FaultyRpc):
    """``faulty-rpc`` on byte-identical inputs with the tracer, the
    flight recorder and the timeline recorder all switched on — the
    only place an ``obs`` cost cut shows, and a standing check that
    observability changes no simulated result."""

    name = "faulty-rpc-observed"
    observed = True


WORKLOADS = {cls.name: cls for cls in (
    PacketStorm, LockStore, EditSession, GroupChat, MediaConference,
    FaultyRpc, FaultyRpcObserved)}
