"""Chaos workloads: injected faults against the full collaboration stack.

Two replayable workloads, registered in
:data:`repro.analysis.workloads.WORKLOADS` so the replay checker, the
races CLI and the profiler all see them:

* ``partition-recovery`` — a four-member session (floor control, causal
  group, QoS-monitored media flow) across a two-site WAN.  A scheduled
  partition splits the sites; the phi-accrual detector suspects the far
  members and drives view changes, the degradation manager reclaims the
  suspected holder's floor, sheds the media contract toward its minimum
  and drops the session to asynchronous mode when the SLO burn alert
  fires; after the heal the members rejoin, the alert clears and full
  service is restored.  The result captures the whole arc: view history,
  suspicion times, SLO fire/clear, degradation log, recovery latency.
* ``flaky-links`` — a client invoking through link flaps, a loss burst
  and a latency storm, protected by the full recovery-policy bundle
  (exponential backoff with deterministic jitter, deadline budget,
  per-destination circuit breaker) plus a backoff-driven
  :class:`~repro.net.transport.ReliableChannel`.  Traced under a head
  sampler *with tail-based sampling*, so error traces survive the head
  drop — the result counts the rescued spans.

Both are pure functions of the seed: every random draw comes from a
named :class:`~repro.sim.RandomStreams` stream and every fault fires
from a declarative :class:`~repro.faults.schedule.FaultSchedule`, so
``python -m repro.analysis.replay`` digest-checks them.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict

from repro.faults.degrade import DegradationManager
from repro.faults.detector import PhiAccrualDetector
from repro.faults.policies import (
    CircuitBreaker,
    FaultPolicies,
    RetryPolicy,
)
from repro.faults.schedule import FaultInjector, FaultSchedule
from repro.groups import MonitoredMembership, ProcessGroup
from repro.net import Network, Topology, wan
from repro.net.transport import ReliableChannel
from repro.node import ODPRuntime
from repro.obs import slo
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.sampling import Sampler
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.qos.broker import QoSBroker
from repro.qos.monitor import QoSMonitor
from repro.qos.params import QoSParameters
from repro.sessions.floor import FcfsFloor
from repro.sessions.session import Session
from repro.sim import Environment, RandomStreams, exponential

# -- partition-recovery ------------------------------------------------------

PARTITION_AT = 10.0
HEAL_AT = 30.0
REJOIN_DELAY = 1.0
RUN_UNTIL = 60.0
MEDIA_UNTIL = 60.0
MEDIA_PORT = 30
FRAME_PERIOD = 0.05
FRAME_BYTES = 1250
HB_INTERVAL = 0.5
PHI_THRESHOLD = 8.0
QOS_WINDOW = 1.0
SLO_TARGET = 0.9
SLO_WINDOWS = ((8.0, 2.0, 2.0, "page"),)
SITE0 = ("site0.host0", "site0.host1", "site0.router")
SITE1 = ("site1.host0", "site1.host1", "site1.router")
MEMBERS = ("site0.host0", "site0.host1", "site1.host0", "site1.host1")
MEDIA_SRC = "site0.host0"
MEDIA_DST = "site1.host0"


def partition_recovery_workload(seed: int = 31,
                                include_faults: bool = True
                                ) -> Dict[str, Any]:
    """A session surviving a two-way WAN partition, end to end.

    ``include_faults=False`` runs the identical stack under an empty
    fault schedule — the healthy baseline the benchmark compares
    against (and a direct check that the injector is inert without
    scheduled events).
    """
    ambient = get_tracer()
    if ambient.enabled:
        tracer = ambient
        scope = contextlib.nullcontext()
    else:
        tracer = Tracer()
        scope = use_tracer(tracer)

    env = Environment()
    topo = wan(env, sites=2, hosts_per_site=2, site_latency=0.02,
               seed=seed)
    net = Network(env, topo)
    metrics = MetricsRegistry()

    with scope, use_metrics(metrics):
        # The cooperating group, failure-detected by phi accrual.
        group = ProcessGroup(net, "team", ordering="causal")
        views = []
        group.on_view(lambda view: views.append(
            {"at": env.now, "view_id": view.view_id,
             "members": list(view.members)}))
        for member in MEMBERS:
            group.join(member)
        detector = PhiAccrualDetector(threshold=PHI_THRESHOLD,
                                      window=40, min_samples=3,
                                      bootstrap_interval=HB_INTERVAL)
        membership = MonitoredMembership(group, interval=HB_INTERVAL,
                                         suspect_after=2.0,
                                         strategy=detector)

        # The session: floor-controlled, synchronous while healthy.
        session = Session(env, "design-review", floor=FcfsFloor(env))
        for member in MEMBERS:
            session.join(member)

        # The QoS-managed media flow crossing the partition boundary.
        broker = QoSBroker(net)
        contract = broker.negotiate(
            MEDIA_SRC, MEDIA_DST,
            desired=QoSParameters(throughput=150000.0, latency=0.5,
                                  jitter=0.5, loss=0.1),
            minimum=QoSParameters(throughput=50000.0, latency=0.5,
                                  jitter=0.5, loss=0.1))
        qos_monitor = QoSMonitor(env, contract, window=QOS_WINDOW,
                                 expected_frames_per_window=QOS_WINDOW
                                 / FRAME_PERIOD,
                                 stop_on_violation=False)

        manager = DegradationManager(env, session=session, broker=broker,
                                     contracts=[contract])
        slo_monitor = slo.SLOMonitor(
            env, [slo.qos_slo("{}->{}".format(MEDIA_SRC, MEDIA_DST),
                              target=SLO_TARGET)],
            registry=metrics, interval=1.0, windows=SLO_WINDOWS,
            until=RUN_UNTIL - 2.0, on_alert=manager.on_alert)

        # Suspicions flow to the manager (floor reclaim, degradation)
        # before the membership reacts (view change).
        suspicions = []
        membership_reaction = membership.monitor.on_suspect

        def on_suspect(member):
            suspicions.append({"at": env.now, "member": member})
            manager.on_suspect(member)
            membership_reaction(member)

        membership.monitor.on_suspect = on_suspect

        # The fault schedule: one two-way partition, healed later.
        schedule = FaultSchedule()
        if include_faults:
            schedule.partition(PARTITION_AT, [list(SITE0), list(SITE1)],
                               name="site-split", heal_at=HEAL_AT)
        injector = FaultInjector(env, net, schedule)

        def rejoin_proc():
            yield env.timeout(REJOIN_DELAY)
            for member in sorted(MEMBERS):
                if member not in group.view.members:
                    membership.restart(member)

        def on_fault(event):
            if event.kind == "heal":
                env.process(rejoin_proc(), name="rejoin")

        injector.add_listener(on_fault)

        # The media stream feeding the QoS monitor.
        src_host = net.host(MEDIA_SRC)
        dst_host = net.host(MEDIA_DST)

        def on_frame(packet):
            qos_monitor.record_frame(packet.headers["sent_at"], env.now,
                                     FRAME_BYTES)

        dst_host.on_packet(MEDIA_PORT, on_frame)

        def media_proc():
            while env.now < MEDIA_UNTIL:
                src_host.send(MEDIA_DST, size=FRAME_BYTES,
                              port=MEDIA_PORT,
                              headers={"type": "media",
                                       "sent_at": env.now})
                yield env.timeout(FRAME_PERIOD)

        env.process(media_proc(), name="media")

        # A far-site member holds the floor going into the partition.
        def floor_proc():
            yield env.timeout(1.0)
            yield session.floor.request("site1.host0")

        env.process(floor_proc(), name="floor-holder")

        env.run(until=RUN_UNTIL)

    fired = [e for e in slo_monitor.events if e["event"] == "fired"]
    cleared = [e for e in slo_monitor.events if e["event"] == "cleared"]
    recovered_at = None
    for view in views:
        if view["at"] >= HEAL_AT and len(view["members"]) == len(MEMBERS):
            recovered_at = view["at"]
            break
    return {
        "workload": "partition-recovery",
        "seed": seed,
        "partition_at": PARTITION_AT,
        "heal_at": HEAL_AT,
        "faults": injector.log,
        "views": views,
        "suspicions": suspicions,
        "first_suspicion_at": suspicions[0]["at"] if suspicions else None,
        "recovered_at": recovered_at,
        "recovery_time": None if recovered_at is None
        else recovered_at - HEAL_AT,
        "slo_fired_at": fired[0]["at"] if fired else None,
        "slo_cleared_at": cleared[0]["at"] if cleared else None,
        "degradation_log": manager.log,
        "session_transitions": session.transitions,
        "session_counters": dict(session.counters.as_dict()),
        "final_throughput": contract.agreed.throughput,
        "qos_windows": {
            "ok": metrics.counter_total("qos.windows_ok"),
            "violated": metrics.counter_total("qos.violations"),
        },
        "faults_injected": metrics.counter_total("fault.injected"),
        "fault_spans": sorted(span.name for span in tracer.spans
                              if span.name.startswith("fault.")),
        "drops": net.drop_stats(),
        "env": env.stats(),
    }


# -- flaky-links -------------------------------------------------------------

FLAP_AT = 5.0
FLAP_COUNT = 2
FLAP_PERIOD = 6.0
BURST_AT = 20.0
BURST_LOSS = 0.4
BURST_DURATION = 5.0
STORM_AT = 28.0
STORM_SCALE = 5.0
STORM_DURATION = 4.0
FLAKY_UNTIL = 40.0
RPC_TIMEOUT = 0.5
THINK_MEAN = 0.2
CHAN_PERIOD = 0.25
CHAN_BYTES = 600
SAMPLE_RATE = 0.25
TAIL_BUFFER = 4096


def flaky_links_workload(seed: int = 31) -> Dict[str, Any]:
    """Recovery policies under flaps, loss bursts and latency storms."""
    ambient = get_tracer()
    if ambient.enabled:
        tracer = ambient
        scope = contextlib.nullcontext()
    else:
        tracer = Tracer(sampler=Sampler(rate=SAMPLE_RATE, seed=seed),
                        tail_keep_errors=True, tail_buffer=TAIL_BUFFER)
        scope = use_tracer(tracer)

    env = Environment()
    streams = RandomStreams(seed)
    topo = Topology(env)
    topo.add_link("client", "server", latency=0.005, bandwidth=1e7,
                  rng=streams.stream("link"))
    net = Network(env, topo)
    metrics = MetricsRegistry()

    with scope, use_metrics(metrics):
        policies = FaultPolicies(
            retry=RetryPolicy(base=0.05, multiplier=2.0, cap=1.0,
                              jitter=0.2, max_retries=4,
                              rng=streams.stream("backoff")),
            breaker=CircuitBreaker(env, failure_threshold=3,
                                   reset_timeout=1.5),
            deadline=4.0)
        runtime = ODPRuntime(net, registry_node="server",
                             policies=policies)
        server = runtime.nucleus("server")
        capsule = server.create_capsule("cap")
        counter = server.create_object(capsule, "counter",
                                       state={"hits": 0})

        def hit(caller, state, args):
            state["hits"] += 1
            return state["hits"]

        counter.operation("hit", hit)
        client = runtime.nucleus("client")

        # A reliable channel with jittered exponential backoff.
        chan_rng = streams.stream("chan-backoff")
        chan_client = ReliableChannel(
            net.host("client"), port=5,
            backoff=RetryPolicy(base=0.1, multiplier=2.0, jitter=0.25,
                                max_retries=2, rng=chan_rng))
        chan_server = ReliableChannel(net.host("server"), port=5)
        received = []

        def drain_proc():
            while True:
                packet = yield chan_server.receive()
                received.append(packet.payload)

        env.process(drain_proc(), name="drain")

        outcomes: Dict[str, int] = {}
        think_rng = streams.stream("think")

        def rpc_proc():
            step = 0
            while env.now < FLAKY_UNTIL:
                yield env.timeout(exponential(think_rng, THINK_MEAN))
                step += 1
                try:
                    yield client.invoke(counter.oid, "hit", None,
                                        timeout=RPC_TIMEOUT)
                    key = "ok"
                except Exception as error:  # noqa: BLE001 - tallied
                    key = type(error).__name__
                outcomes[key] = outcomes.get(key, 0) + 1

        env.process(rpc_proc(), name="rpc-client")

        chan_failures = [0]
        chan_sent = [0]

        def chan_proc():
            while env.now < FLAKY_UNTIL:
                yield env.timeout(CHAN_PERIOD)
                chan_sent[0] += 1
                try:
                    yield chan_client.send("server",
                                           payload=chan_sent[0],
                                           size=CHAN_BYTES)
                except Exception:  # noqa: BLE001 - tallied
                    chan_failures[0] += 1

        env.process(chan_proc(), name="chan-sender")

        schedule = FaultSchedule()
        schedule.link_flap(FLAP_AT, "client", "server",
                           count=FLAP_COUNT, period=FLAP_PERIOD)
        schedule.loss_burst(BURST_AT, BURST_LOSS, BURST_DURATION,
                            links=[("client", "server")])
        schedule.latency_storm(STORM_AT, STORM_SCALE, STORM_DURATION,
                               links=[("client", "server")])
        injector = FaultInjector(env, net, schedule)

        env.run(until=FLAKY_UNTIL + 5.0)

    tail_promoted = tracer.tail_flush()
    error_spans = sum(1 for span in tracer.spans
                      if span.status != "ok")
    return {
        "workload": "flaky-links",
        "seed": seed,
        "faults": injector.log,
        # Operations that never resolved by the end of the drained run
        # (senders stop at FLAKY_UNTIL, the run extends 5 s past it):
        # every value is zero once all scheduled faults have lifted.
        "inflight": {
            "chan.client": chan_client.inflight(),
            "chan.server": chan_server.inflight(),
            "rpc.client": client.rpc.inflight(),
            "rpc.server": server.rpc.inflight(),
        },
        "outcomes": {key: outcomes[key] for key in sorted(outcomes)},
        "hits": counter.state["hits"],
        "chan_sent": chan_sent[0],
        # In-order deliveries: a send the channel gave up on leaves a
        # permanent sequence gap, so exactly-once FIFO delivery stalls
        # at the first give-up (head-of-line blocking by design).
        "chan_delivered": len(received),
        "chan_retries": chan_client.retries,
        "chan_gave_up": chan_client.gave_up,
        "chan_send_failures": chan_failures[0],
        "breaker": policies.breaker.snapshot(),
        "breaker_rejected": policies.breaker.rejected,
        "metric_chan_retries": metrics.counter_total("chan.retries"),
        "metric_rpc_retries": metrics.counter_total("rpc.retries"),
        "metric_breaker_opened": metrics.counter_total("breaker.opened"),
        "tail_promoted": tail_promoted,
        "error_spans": error_spans,
        "spans_retained": len(tracer.spans),
        "spans_sampled_out": tracer.sampled_out,
        "drops": net.drop_stats(),
        "env": env.stats(),
    }
