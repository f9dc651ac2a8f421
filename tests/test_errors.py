"""The error hierarchy: every library error is a ReproError."""

import inspect
import json
import re

import pytest

from repro import errors
from repro.access import AccessMatrix, AccessNegotiator, RoleBasedPolicy
from repro.awareness import AwarenessBus, DigestService, Entity
from repro.concurrency import (
    TICKLE,
    Delete,
    Insert,
    LockTable,
    OTClientCore,
    OTClientSite,
    OTServerCore,
)
from repro.faults import (
    CircuitBreaker,
    FaultPolicies,
    FaultSchedule,
    RetryPolicy,
)
from repro.faults.corpus import SCHEMA, load_entry
from repro.faults.detector import PhiAccrualDetector
from repro.faults.fuzz import FuzzProfile, run_campaign
from repro.faults.policies import DeadlineBudget
from repro.groups import (
    FixedTimeout,
    HeartbeatMonitor,
    HeartbeatSender,
    MonitoredMembership,
    ProcessGroup,
)
from repro.management import MigrationManager, UsageMonitor
from repro.net import (
    Link,
    Network,
    Packet,
    ReliableChannel,
    RpcEndpoint,
    Topology,
    lan,
    periodic_trace,
)
from repro.node import EngineeringObject, Ids, ODPRuntime
from repro.obs import slo
from repro.obs.flight import FlightRecorder
from repro.obs.timeline import TimelineRecorder
from repro.qos import QoSContract, QoSMonitor, QoSParameters
from repro.run import RunSpec
from repro.sessions import (
    AwareSharedObject,
    FcfsFloor,
    NegotiatedFloor,
    RoundRobinFloor,
    SingleUserApp,
    TelepointerService,
    TransparentConference,
)
from repro.sim import Environment
from repro.spaces import MediaSpace
from repro.streams import ContinuousSynchroniser, MediaSink, MediaSource


def all_error_classes():
    return [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, Exception)]


def test_every_error_derives_from_repro_error():
    for cls in all_error_classes():
        assert issubclass(cls, errors.ReproError), cls


def test_catching_the_family():
    with pytest.raises(errors.ReproError):
        raise errors.QoSNegotiationFailed("no capacity")
    with pytest.raises(errors.NetworkError):
        raise errors.RoutingError("no route")
    with pytest.raises(errors.ConcurrencyError):
        raise errors.TransactionAborted("deadlock")
    with pytest.raises(errors.SessionError):
        raise errors.FloorControlError("not holding")
    with pytest.raises(errors.GroupError):
        raise errors.MembershipError("not a member")
    with pytest.raises(errors.MobilityError):
        raise errors.DisconnectedError("in the tunnel")
    with pytest.raises(errors.WorkflowError):
        raise errors.IllegalSpeechAct("cannot promise yet")


def test_hierarchy_is_wide():
    # The library distinguishes its subsystems' failures.
    assert len(all_error_classes()) >= 20


# -- delays are rejected where they are given, by name ---------------------------

_DELAYS = [
    (errors.SessionError, TelepointerService, (), "update_interval"),
    (errors.SessionError, TelepointerService, (), "latency"),
    (errors.StreamError, MediaSink, ("s",), "target_delay"),
    (errors.AccessPolicyError, AccessMatrix, ("admin",), "admin_delay"),
]


@pytest.mark.parametrize("value", [float("nan"), -1])
@pytest.mark.parametrize(
    "error, cls, args, field", _DELAYS,
    ids=["{}.{}".format(cls.__name__, field) for _, cls, _, field in _DELAYS])
def test_a_delay_that_is_not_a_time_is_rejected_by_name(error, cls, args,
                                                        field, value):
    """NaN passes ``x < 0``; unchecked it only fails inside the run, as
    the kernel's anonymous "delay is not a time"."""
    with pytest.raises(error, match="{} must be non-negative: {!r}".format(
            field, value)):
        cls(Environment(), *args, **{field: value})


# -- ... and so is a participant at a host the network does not have -----------


def test_a_participant_at_a_host_the_topology_lacks_is_rejected_by_name():
    """A name is its own host unless ``host=`` says otherwise, so the
    error names the host it looked for; nothing is registered or sent."""
    env = Environment()
    bus = AwarenessBus(Network(env, lan(env, hosts=2)))
    with pytest.raises(errors.NetworkError,
                       match="^host must be a node of the topology: 'bob'$"):
        bus.subscribe("bob", print)
    with pytest.raises(errors.NetworkError, match="^host .*'desk'$"):
        bus.subscribe("host1", print, host="desk")
    bus.subscribe("host1", print)
    with pytest.raises(errors.NetworkError, match="^host .*'alice'$"):
        bus.publish("alice", "doc", "edit")
    assert bus._subscribers.keys() == {"host1"}
    assert bus.network.counters["sent"] == 0


def test_a_sharer_at_a_host_the_topology_lacks_is_rejected_by_name():
    """The app's host and each member's: nothing joins, nothing is sent."""
    env = Environment()
    network = Network(env, lan(env, hosts=2))
    with pytest.raises(errors.NetworkError,
                       match="^host must be a node of the topology: 'app'$"):
        TransparentConference(network, SingleUserApp(), FcfsFloor(env),
                              "app")
    conference = TransparentConference(network, SingleUserApp(),
                                       FcfsFloor(env), "host0")
    shared = AwareSharedObject(network)
    for join in (conference.join, shared.join):
        with pytest.raises(errors.NetworkError, match="^host .*'bob'$"):
            join("bob")
    assert conference.screens == shared.presented == {}
    assert list(network.hosts) == ["host0"]
    with pytest.raises(errors.SessionError):
        conference.submit("bob", "x")
    env.run()
    assert network.counters["sent"] == 0


# -- ... so is a timeout: the call never starts, nothing is left in flight -------


def _endpoint(env=None):
    env = env or Environment()
    topology = Topology(env)
    topology.add_link("a", "b", latency=0.001)
    return RpcEndpoint(Network(env, topology).host("a"))


def _nucleus():
    env = Environment()
    runtime = ODPRuntime(Network(env, lan(env, hosts=2)), "host0")
    return runtime.nucleus("host0")


_TIMEOUTS = [
    (errors.TransportError, "timeout",
     lambda value: _endpoint().call("b", "m", timeout=value)),
    (errors.NodeError, "timeout",
     lambda value: _nucleus().invoke("obj-1", "op", timeout=value)),
    (errors.TransportError, "ack_timeout",
     lambda value: ReliableChannel(_endpoint().host, ack_timeout=value)),
    (errors.AccessPolicyError, "deadline",
     lambda value: _negotiator()[0].request("alice", "doc", "write",
                                            ["owner"], deadline=value)),
]


@pytest.mark.parametrize("value", [float("nan"), -1.0])
@pytest.mark.parametrize(
    "error, field, build", _TIMEOUTS,
    ids=["RpcEndpoint.call.timeout", "Nucleus.invoke.timeout",
         "ReliableChannel.ack_timeout", "AccessNegotiator.request.deadline"])
def test_a_timeout_that_is_not_a_time_is_rejected_by_name(error, field, build,
                                                          value):
    """Unchecked it detonates one event later, inside the run, as the
    kernel's anonymous delay error — with the caller's event never
    fired and ``rpc.inflight`` stuck at 1."""
    with pytest.raises(error, match="^{} must be non-negative: {!r}".format(
            field, value)):
        build(value)


def _negotiator():
    negotiator = AccessNegotiator(Environment(), RoleBasedPolicy())
    asked = []
    negotiator.on_request("owner", asked.append)
    return negotiator, asked


def test_a_refused_deadline_registers_nothing():
    negotiator, asked = _negotiator()
    for value in (float("nan"), -1.0):
        with pytest.raises(errors.AccessPolicyError, match="^deadline"):
            negotiator.request("alice", "doc", "write", ["owner"],
                               deadline=value)
    assert (negotiator._pending, negotiator.counters["requests"], asked) \
        == ({}, 0, [])


def test_a_refused_timeout_leaves_nothing_in_flight():
    env = Environment()
    endpoint = _endpoint(env)
    with pytest.raises(errors.TransportError):
        endpoint.call("b", "m", timeout=float("nan"))
    env.run()
    assert (endpoint.inflight(), endpoint._calls, env.now) == (0, {}, 0.0)


@pytest.mark.parametrize("value", [0.0, float("inf")])
def test_zero_and_infinity_are_times(value):
    """A call that gives up at once, and one that never does."""
    env = Environment()
    endpoint = _endpoint(env)
    RpcEndpoint(endpoint.host.network.host("b")).register(
        "echo", lambda caller, args: args)
    done = endpoint.call("b", "echo", "x", timeout=value).defuse()
    env.run(until=1.0)
    assert done.triggered and endpoint.inflight() == 0
    assert done.ok == (value > 0)


# -- ... and so are sizes and rates, at the kernel and link boundaries -----------


def _link(env, **kwargs):
    return Link(env, "a", "b", **kwargs)


def _impair(env, **kwargs):
    _link(env).impair(**kwargs)


def _relieve(env, **kwargs):
    _link(env).relieve(**kwargs)


def _packet(env, **kwargs):
    return Packet("a", "b", **kwargs)


def _periodic_trace(env, period_connected=1.0, period_disconnected=1.0):
    return periodic_trace(period_connected, period_disconnected, 10.0)


def _entity(env, **kwargs):
    return Entity("x", **kwargs)


def _migration(env, **kwargs):
    runtime = ODPRuntime(Network(env, lan(env, hosts=2)), "host0")
    return MigrationManager(runtime, UsageMonitor(env), **kwargs)


def _window_hook(env, interval=1.0):
    env.set_window_hook(interval, print)


def _object(env, **kwargs):
    return EngineeringObject(Ids(), "x", **kwargs)


def _source(env, **kwargs):
    return MediaSource(env, "video", lambda frame: None, **kwargs)


def _synchroniser(env, **kwargs):
    return ContinuousSynchroniser(env, MediaSink(env, "video"),
                                  MediaSink(env, "audio"), **kwargs)


def _digests(env, **kwargs):
    return DigestService(AwarenessBus(Network(env, lan(env, hosts=1))),
                         "host0", **kwargs)


def _qos_level(env, **kwargs):
    return QoSParameters(**kwargs)


def _qos_monitor(env, **kwargs):
    level = QoSParameters()
    contract = QoSContract("qos-1", "a", "b", level, level, level)
    return QoSMonitor(env, contract, **kwargs)


_BOUNDS = [
    (errors.NetworkError, _link, "latency", "must be non-negative"),
    (errors.NetworkError, _link, "bandwidth", "must be positive"),
    (errors.NetworkError, _link, "jitter", "must be non-negative"),
    (errors.NetworkError, _impair, "latency_scale", "must be positive"),
    (errors.NetworkError, _impair, "extra_loss", "must be non-negative"),
    (errors.NetworkError, _relieve, "latency_scale", "must be positive"),
    (errors.NetworkError, _relieve, "extra_loss", "must be non-negative"),
    (ValueError, _packet, "size", "must be non-negative"),
    (errors.NetworkError, _periodic_trace, "period_connected",
     "must be positive"),
    (errors.NetworkError, _periodic_trace, "period_disconnected",
     "must be positive"),
    (errors.SimulationError, _window_hook, "interval", "must be positive"),
    (errors.FloorControlError, RoundRobinFloor, "quantum", "must be positive"),
    (errors.FloorControlError, NegotiatedFloor, "negotiation_latency",
     "must be non-negative"),
    (errors.NodeError, _object, "state_size", "must be non-negative"),
    (errors.StreamError, _source, "rate", "must be positive"),
    (errors.StreamError, _source, "frame_size", "must be positive"),
    (errors.StreamError, _source, "clock_skew", "must be positive"),
    (errors.StreamError, _synchroniser, "check_interval", "must be positive"),
    (errors.ReproError, UsageMonitor, "window", "must be positive"),
    (errors.ReproError, _digests, "interval", "must be positive"),
    (errors.QoSError, _qos_monitor, "window", "must be positive"),
    (errors.QoSError, _qos_level, "throughput", "must be non-negative"),
    (errors.QoSError, _qos_level, "latency", "must be non-negative"),
    (errors.QoSError, _qos_level, "jitter", "must be non-negative"),
    (errors.ReproError, _entity, "aura", "radius must be non-negative"),
    (errors.ReproError, _entity, "focus", "radius must be non-negative"),
    (errors.ReproError, _entity, "nimbus", "radius must be non-negative"),
    (errors.PlacementError, _migration, "period", "must be positive"),
    (errors.ReproError, MediaSpace, "glance_duration", "must be positive"),
    (errors.ReproError, MediaSpace, "video_rate", "must be positive"),
]


@pytest.mark.parametrize("value", [float("nan"), -1])
@pytest.mark.parametrize(
    "error, build, field, rule", _BOUNDS,
    ids=["{}.{}".format(build.__name__.strip("_"), field)
         for _, build, field, _ in _BOUNDS])
def test_a_bound_that_is_not_a_number_is_rejected_by_name(error, build, field,
                                                          rule, value):
    """NaN passes ``x <= 0`` and ``x < 0``; unchecked, a NaN latency or
    bandwidth fails inside the run as an anonymous delay, NaN jitter is
    ignored and a NaN window interval never fires; a NaN packet size
    sets the clock to NaN, and every later delivery happens at NaN; a
    NaN latency scale makes every later hop's delay NaN and a NaN extra
    loss switches the link's loss off; a NaN trace period puts a NaN
    instant into the trace; a NaN radius makes every awareness test
    false; a NaN floor quantum or latency, object
    state size or migration period fails inside the run as an anonymous
    delay, and so do a NaN frame rate, clock skew, sync check interval,
    usage window, digest interval or QoS window, and a NaN or negative
    media-space glance length or video rate at the first glance."""
    with pytest.raises(error, match="{} {}".format(field, rule)):
        build(Environment(), **{field: value})


# -- ... and at every faults boundary, a corpus file's fields included -----------

_NAN, _INF = float("nan"), float("inf")


def _corpus_file(tmp_path, event):
    """A corpus file holding ``event``; ``json`` writes and reads NaN and
    Infinity, so the file is what a hand edit could leave behind."""
    path = tmp_path / "fuzz-edited.json"
    path.write_text(json.dumps({
        "schema": SCHEMA, "id": "edited", "workload": "partition-recovery",
        "workload_seed": 31, "oracle": "invariant:view-recovers",
        "schedule": {"events": [event]}}))
    return load_entry(str(path))


_FAULT_BOUNDS = [
    ("FaultSchedule.link_down.at", "at",
     lambda tmp: FaultSchedule().link_down(_NAN, "a", "b")),
    ("FaultSchedule.latency_storm.scale", "scale",
     lambda tmp: FaultSchedule().latency_storm(1.0, _NAN, 1.0)),
    ("FaultSchedule.latency_storm.duration", "duration",
     lambda tmp: FaultSchedule().latency_storm(1.0, 2.0, _NAN)),
    ("FaultSchedule.link_flap.period", "period",
     lambda tmp: FaultSchedule().link_flap(1.0, "a", "b", 1, _NAN)),
    ("FaultSchedule.link_flap.count-float", "count",
     lambda tmp: FaultSchedule().link_flap(1.0, "a", "b", 2.5, 1.0)),
    ("FaultSchedule.link_flap.count-nan", "count",
     lambda tmp: FaultSchedule().link_flap(1.0, "a", "b", _NAN, 1.0)),
    ("FaultSchedule.link_flap.count-bool", "count",
     lambda tmp: FaultSchedule().link_flap(1.0, "a", "b", True, 1.0)),
    ("FaultSchedule.partition.groups-strings", "groups",
     lambda tmp: FaultSchedule().partition(1.0, ["n0", "n1"])),
    ("FaultSchedule.partition.groups-overlap", "groups",
     lambda tmp: FaultSchedule().partition(1.0, [["n0"], ["n0", "n1"]])),
    ("FaultSchedule.link_down.up_at", "up_at",
     lambda tmp: FaultSchedule().link_down(1.0, "a", "b", up_at=_NAN)),
    ("corpus.at", "event 0 (link-down @nan): 'at'",
     lambda tmp: _corpus_file(tmp, {"at": _NAN, "kind": "link-down",
                                    "a": "a", "b": "b"})),
    ("corpus.scale", "event 0 (latency-storm @1.0): 'scale'",
     lambda tmp: _corpus_file(tmp, {"at": 1.0, "kind": "latency-storm",
                                    "scale": _INF, "links": None})),
    ("corpus.groups", "event 0 (partition @1.0): 'groups'",
     lambda tmp: _corpus_file(tmp, {"at": 1.0, "kind": "partition",
                                    "name": "p",
                                    "groups": [["n0"], ["n0", "n1"]]})),
    ("RetryPolicy.base", "base", lambda tmp: RetryPolicy(base=_NAN)),
    ("RetryPolicy.multiplier-inf", "multiplier",
     lambda tmp: RetryPolicy(multiplier=_INF)),
    ("RetryPolicy.multiplier-nan", "multiplier",
     lambda tmp: RetryPolicy(multiplier=_NAN)),
    ("RetryPolicy.cap", "cap", lambda tmp: RetryPolicy(cap=_NAN)),
    ("CircuitBreaker.reset_timeout", "reset_timeout",
     lambda tmp: CircuitBreaker(Environment(), reset_timeout=_NAN)),
    ("FaultPolicies.deadline", "deadline",
     lambda tmp: FaultPolicies(deadline=_NAN)),
    ("DeadlineBudget.budget", "budget",
     lambda tmp: DeadlineBudget(Environment(), _NAN)),
    ("PhiAccrualDetector.threshold", "threshold",
     lambda tmp: PhiAccrualDetector(threshold=_NAN)),
    ("PhiAccrualDetector.bootstrap_interval", "bootstrap_interval",
     lambda tmp: PhiAccrualDetector(bootstrap_interval=_INF)),
    ("PhiAccrualDetector.window-nan", "window",
     lambda tmp: PhiAccrualDetector(window=_NAN)),
    ("PhiAccrualDetector.window-float", "window",
     lambda tmp: PhiAccrualDetector(window=2.5)),
    ("PhiAccrualDetector.window-bool", "window",
     lambda tmp: PhiAccrualDetector(window=True)),
    ("PhiAccrualDetector.min_samples-nan", "min_samples",
     lambda tmp: PhiAccrualDetector(min_samples=_NAN)),
    ("PhiAccrualDetector.min_samples-float", "min_samples",
     lambda tmp: PhiAccrualDetector(min_samples=2.5)),
    ("FuzzProfile.active", "active",
     lambda tmp: FuzzProfile("p", (-1.0, 10.0), 12.0)),
    ("FuzzProfile.max_ops", "max_ops",
     lambda tmp: FuzzProfile("p", (1.0, 10.0), 12.0, max_ops=0)),
    ("FuzzProfile.heal_by", "heal_by",
     lambda tmp: FuzzProfile("p", (1.0, 10.0), _NAN)),
    ("FuzzProfile.max_ops-bool", "max_ops",
     lambda tmp: FuzzProfile("p", (1.0, 10.0), 12.0, max_ops=True)),
    ("FuzzProfile.max_ops-float", "max_ops",
     lambda tmp: FuzzProfile("p", (1.0, 10.0), 12.0, max_ops=2.5)),
    ("run_campaign.budget-zero", "budget",
     lambda tmp: run_campaign("partition-recovery", budget=0, seed=7)),
    ("run_campaign.budget-negative", "budget",
     lambda tmp: run_campaign("partition-recovery", budget=-3, seed=7)),
    ("run_campaign.max_failures", "max_failures",
     lambda tmp: run_campaign("partition-recovery", budget=1, seed=7,
                              max_failures=0)),
]


@pytest.mark.parametrize("field, build", [case[1:] for case in _FAULT_BOUNDS],
                         ids=[case[0] for case in _FAULT_BOUNDS])
def test_a_fault_parameter_out_of_range_is_rejected_by_name(field, build,
                                                            tmp_path):
    """Unchecked, a NaN fault time never fires and a NaN storm never
    lifts; a NaN threshold never suspects anybody (``phi >= nan`` is
    false), a NaN detector window is never trimmed, a NaN min_samples
    skips bootstrap and the first ``phi()`` divides by zero, a shed fraction of 2 raises inside the run at the first
    alert, and a profile with no operations crashes its generator.  A
    fractional ``max_ops`` failed only in the first trial, as randrange's
    unnamed ``ValueError``; a campaign bound below 1 ran no trial and
    still returned a digest-stamped summary.  A partition of bare
    strings split each name into characters, and a node in two groups
    failed only when the injector ran; a fractional or NaN flap count
    was a bare ``TypeError`` and ``True`` flapped once."""
    with pytest.raises(errors.SimulationError,
                       match="^" + re.escape(field) + " must be"):
        build(tmp_path)


def _heartbeat_host(name):
    env = Environment()
    return Network(env, lan(env, hosts=2)).host(name)


def _monitored(interval):
    env = Environment()
    group = ProcessGroup(Network(env, lan(env, hosts=2)), "g")
    for host in ("host0", "host1"):
        group.join(host)
    return MonitoredMembership(group, interval=interval)


_HEARTBEAT_BOUNDS = [
    ("FixedTimeout.suspect_after", "suspect_after",
     lambda: FixedTimeout(_NAN)),
    ("HeartbeatMonitor.suspect_after", "suspect_after",
     lambda: HeartbeatMonitor(_heartbeat_host("host0"), [],
                              suspect_after=_NAN)),
    ("HeartbeatMonitor.check_interval", "check_interval",
     lambda: HeartbeatMonitor(_heartbeat_host("host0"), [],
                              check_interval=_NAN)),
    ("HeartbeatSender.interval", "interval",
     lambda: HeartbeatSender(_heartbeat_host("host1"), "host0",
                             interval=_NAN)),
    ("MonitoredMembership.interval-nan", "interval",
     lambda: _monitored(_NAN)),
    ("MonitoredMembership.interval-negative", "interval",
     lambda: _monitored(-1.0)),
    ("MonitoredMembership.interval-zero", "interval",
     lambda: _monitored(0.0)),
]


@pytest.mark.parametrize("field, build",
                         [case[1:] for case in _HEARTBEAT_BOUNDS],
                         ids=[case[0] for case in _HEARTBEAT_BOUNDS])
def test_a_heartbeat_parameter_out_of_range_is_rejected_by_name(field, build):
    """Unchecked, a NaN suspicion timeout never suspects anybody
    (``silent_for >= nan`` is false) and a NaN period fails inside the
    run as the kernel's anonymous "delay is not a time"; a bad
    membership interval was blamed on the ``check_interval`` derived
    from it, at half its value."""
    with pytest.raises(errors.GroupError, match="^{} must be".format(field)):
        build()


# -- ... and at the OT boundaries, before a bad edit reaches any replica ---------


def _ot_site():
    env = Environment()
    return OTClientSite(Network(env, lan(env, hosts=2)).host("host1"), "host0",
                        initial="abc")


_OT_BOUNDS = [
    ("Insert.pos-float", "pos", lambda: Insert(1.5, "a")),
    ("Insert.pos-bool", "pos", lambda: Insert(True, "a")),
    ("Insert.pos-nan", "pos", lambda: Insert(_NAN, "a")),
    ("Insert.char", "char", lambda: Insert(1, 5)),
    ("Delete.pos-float", "pos", lambda: Delete(2.0)),
    ("Delete.pos-str", "pos", lambda: Delete("3")),
    ("OTClientCore.revision", "revision",
     lambda: OTClientCore("s", revision=-1)),
    ("OTClientCore.local_edit.ops", "ops",
     lambda: OTClientCore("s").local_edit([])),
    ("OTServerCore.receive.base_rev", "base_rev",
     lambda: OTServerCore().receive("s", 0.0, [Insert(0, "a")])),
    ("OTServerCore.receive.ops", "ops", lambda: OTServerCore().receive(
        "s", 0, [])),
    ("OTClientSite.insert.text", "text", lambda: _ot_site().insert(0, "")),
    ("OTClientSite.delete.count-zero", "count",
     lambda: _ot_site().delete(0, 0)),
    ("OTClientSite.delete.count-negative", "count",
     lambda: _ot_site().delete(0, -2)),
]


@pytest.mark.parametrize("field, build", [case[1:] for case in _OT_BOUNDS],
                         ids=[case[0] for case in _OT_BOUNDS])
def test_an_ot_argument_out_of_range_is_rejected_by_name(field, build):
    """Unchecked, a float, bool or NaN position is accepted and fails
    later at slicing as a bare ``TypeError``; a non-character or string
    position fails as one at once; a negative revision is accepted; and
    an empty insert or delete is sequenced as an empty revision and
    broadcast to every replica."""
    with pytest.raises(errors.ConcurrencyError,
                       match="^" + re.escape(field) + " must "):
        build()


# -- ... and at the lock table, before a request reaches a queue -----------------

_LOCK_BOUNDS = [
    ("LockTable.tickle_grace-nan", "tickle_grace",
     lambda: LockTable(Environment(), style=TICKLE, tickle_grace=_NAN)),
    ("LockTable.style-none", "style",
     lambda: LockTable(Environment(), style=None)),
    ("LockTable.acquire.mode-none", "mode",
     lambda: LockTable(Environment()).acquire("k", "ann", mode=None)),
]


@pytest.mark.parametrize("field, build", [case[1:] for case in _LOCK_BOUNDS],
                         ids=[case[0] for case in _LOCK_BOUNDS])
def test_a_lock_argument_out_of_range_is_rejected_by_name(field, build):
    """Unchecked, a NaN grace is accepted and no tickle takeover ever
    fires (``idle >= nan`` is false); a ``None`` style or mode fails as
    a bare ``TypeError`` while the message is built."""
    with pytest.raises(errors.LockError,
                       match="^" + re.escape(field) + " must "):
        build()


# -- ... and at a run's spec, before any observer is installed -------------------

_RUN_BOUNDS = [
    ("RunSpec.workload", KeyError, "unknown workload 'no-such-workload'",
     lambda: RunSpec("no-such-workload", 31)),
    ("RunSpec.seed-bool", errors.SimulationError, "seed must be",
     lambda: RunSpec("locks-hard", True)),
    ("RunSpec.seed-float", errors.SimulationError, "seed must be",
     lambda: RunSpec("locks-hard", 31.0)),
    ("RunSpec.tracer", errors.SimulationError, "tracer must be",
     lambda: RunSpec("locks-hard", 31, tracer=object())),
    ("RunSpec.journal", errors.SimulationError, "journal must be",
     lambda: RunSpec("locks-hard", 31, journal=Environment())),
    ("RunSpec.schedule", errors.SimulationError, "schedule must be",
     lambda: RunSpec("locks-hard", 31, schedule=FaultSchedule())),
]


@pytest.mark.parametrize("error, rule, build",
                         [case[1:] for case in _RUN_BOUNDS],
                         ids=[case[0] for case in _RUN_BOUNDS])
def test_a_run_spec_field_is_rejected_by_name(error, rule, build):
    """Unchecked, a bool or float seed runs, as another run than the int
    it stands for (its digest differs), and a wrong observer or schedule
    fails at its first use, inside the run, as an unnamed
    ``AttributeError`` or ``TypeError``."""
    with pytest.raises(error) as caught:
        build()
    assert caught.value.args[0].startswith(rule)


# -- ... and at a flight recorder's retention, before any record is kept ---------

_FLIGHT_BOUNDS = [
    ("ring-bool", "ring", {"ring": True}),
    ("ring-float", "ring", {"ring": 2.5}),
    ("context-negative", "context", {"context": -1}),
    ("keep_epochs-reversed", "keep_epochs", {"keep_epochs": (3, 1)}),
    ("keep_epochs-short", "keep_epochs", {"keep_epochs": (0,)}),
]


@pytest.mark.parametrize("field, kwargs",
                         [case[1:] for case in _FLIGHT_BOUNDS],
                         ids=[case[0] for case in _FLIGHT_BOUNDS])
def test_a_flight_retention_argument_is_rejected_by_name(field, kwargs):
    """Unchecked, ``ring=True`` is a one-record ring, ``ring=2.5`` and
    ``context=-1`` fail as the ring's unnamed ``TypeError`` and
    ``ValueError``, a reversed epoch range keeps nothing, and a one-item
    range raises ``IndexError`` at the first fold."""
    with pytest.raises(ValueError, match="^" + re.escape(field) + " must "):
        FlightRecorder(**kwargs)


# -- ... and at an SLO monitor and a timeline, before their first window ---------

def _slo_monitor(**kwargs):
    objective = slo.CounterRatioSLO("svc", good=("svc", {"outcome": "ok"}),
                                    bad=("svc", {"outcome": "err"}),
                                    target=0.9)
    return slo.SLOMonitor(Environment(), [objective], **kwargs)


_WATCH_BOUNDS = [
    ("SLOMonitor.factor-nan", errors.QoSError, "burn-rate factor",
     lambda: _slo_monitor(windows=((10.0, 2.0, _NAN, "page"),))),
    ("SLOMonitor.long-window-nan", errors.QoSError, "long window",
     lambda: _slo_monitor(windows=((_NAN, 2.0, 4.0, "page"),))),
    ("SLOMonitor.short-window-nan", errors.QoSError, "short window",
     lambda: _slo_monitor(windows=((10.0, _NAN, 4.0, "page"),))),
    ("SLOMonitor.windows-negative", errors.QoSError, "long window",
     lambda: _slo_monitor(windows=((-1.0, -2.0, 4.0, "page"),))),
    ("SLOMonitor.until-nan", errors.QoSError, "until",
     lambda: _slo_monitor(until=_NAN)),
    ("TimelineRecorder.resolution-nan", ValueError, "resolution",
     lambda: TimelineRecorder(Environment(), resolution=_NAN)),
    ("TimelineRecorder.resolution-zero", ValueError, "resolution",
     lambda: TimelineRecorder(Environment(), resolution=0)),
]


@pytest.mark.parametrize("error, field, build",
                         [case[1:] for case in _WATCH_BOUNDS],
                         ids=[case[0] for case in _WATCH_BOUNDS])
def test_a_watcher_argument_out_of_range_is_rejected_by_name(error, field,
                                                            build):
    """Unchecked, a NaN or negative window, a NaN factor or
    ``until=nan`` is taken and the monitor then never alerts or never
    evaluates, and a bad resolution is reported as the kernel's "window
    interval"."""
    with pytest.raises(error, match="^" + re.escape(field) + " must "):
        build()
