"""The error hierarchy: every library error is a ReproError."""

import inspect
import json
import re

import pytest

from repro import errors
from repro.access import AccessMatrix
from repro.awareness import AwarenessBus
from repro.faults import (
    CircuitBreaker,
    FaultPolicies,
    FaultSchedule,
    RetryPolicy,
)
from repro.faults.corpus import SCHEMA, load_entry
from repro.faults.degrade import DegradationManager
from repro.faults.detector import PhiAccrualDetector
from repro.faults.fuzz import FuzzProfile
from repro.faults.policies import DeadlineBudget
from repro.net import (
    Link,
    Network,
    ReliableChannel,
    RpcEndpoint,
    Topology,
    lan,
)
from repro.node import ODPRuntime
from repro.sessions import TelepointerService
from repro.sim import (
    Container,
    Environment,
    PriorityResource,
    Resource,
    Store,
)
from repro.streams import MediaSink


def all_error_classes():
    return [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, Exception)]


def test_every_error_derives_from_repro_error():
    for cls in all_error_classes():
        assert issubclass(cls, errors.ReproError), cls


def test_catching_the_family():
    with pytest.raises(errors.ReproError):
        raise errors.QoSNegotiationFailed("no capacity")
    with pytest.raises(errors.QoSError):
        raise errors.QoSViolation("late frames")
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
    (ValueError, AwarenessBus, (), "latency"),
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


def _migrate(timeout):
    nucleus = _nucleus()
    obj = nucleus.create_object(nucleus.create_capsule(), "x")
    return nucleus.migrate_cluster(obj.cluster, "host1", timeout=timeout)


_TIMEOUTS = [
    (errors.TransportError, "default_timeout",
     lambda value: RpcEndpoint(_endpoint().host, default_timeout=value)),
    (errors.TransportError, "timeout",
     lambda value: _endpoint().call("b", "m", timeout=value)),
    (errors.NodeError, "timeout",
     lambda value: _nucleus().invoke("obj-1", "op", timeout=value)),
    (errors.NodeError, "timeout", _migrate),
    (errors.TransportError, "ack_timeout",
     lambda value: ReliableChannel(_endpoint().host, ack_timeout=value)),
]


@pytest.mark.parametrize("value", [float("nan"), -1.0])
@pytest.mark.parametrize(
    "error, field, build", _TIMEOUTS,
    ids=["RpcEndpoint.default_timeout", "RpcEndpoint.call.timeout",
         "Nucleus.invoke.timeout", "Nucleus.migrate_cluster.timeout",
         "ReliableChannel.ack_timeout"])
def test_a_timeout_that_is_not_a_time_is_rejected_by_name(error, field, build,
                                                          value):
    """Unchecked it detonates one event later, inside the run, as the
    kernel's anonymous delay error — with the caller's event never
    fired and ``rpc.inflight`` stuck at 1."""
    with pytest.raises(error, match="^{} must be non-negative: {!r}".format(
            field, value)):
        build(value)


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


def _window_hook(env, interval=1.0, start=None):
    env.set_window_hook(interval, print, start)


_BOUNDS = [
    (errors.SimulationError, Resource, "capacity", "must be positive"),
    (errors.SimulationError, PriorityResource, "capacity",
     "must be positive"),
    (errors.SimulationError, Store, "capacity", "must be positive"),
    (errors.SimulationError, Container, "capacity", "must be positive"),
    (errors.NetworkError, _link, "latency", "must be non-negative"),
    (errors.NetworkError, _link, "bandwidth", "must be positive"),
    (errors.NetworkError, _link, "jitter", "must be non-negative"),
    (errors.SimulationError, _window_hook, "interval", "must be positive"),
]


@pytest.mark.parametrize("value", [float("nan"), -1])
@pytest.mark.parametrize(
    "error, build, field, rule", _BOUNDS,
    ids=["{}.{}".format(build.__name__.strip("_"), field)
         for _, build, field, _ in _BOUNDS])
def test_a_bound_that_is_not_a_number_is_rejected_by_name(error, build, field,
                                                          rule, value):
    """NaN passes ``x <= 0`` and ``x < 0``; unchecked, a NaN capacity
    never grants (a silent deadlock), a NaN latency or bandwidth fails
    inside the run as an anonymous delay, NaN jitter is ignored and a
    NaN window interval never fires."""
    with pytest.raises(error, match="{} {}".format(field, rule)):
        build(Environment(), **{field: value})


def test_a_window_start_that_is_not_a_time_is_rejected_by_name():
    env = Environment()
    with pytest.raises(errors.SimulationError, match="window start.*nan"):
        _window_hook(env, start=float("nan"))
    _window_hook(env, start=-1.0)   # an anchor in the past is a time


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
    ("FaultSchedule.link_down.up_at", "up_at",
     lambda tmp: FaultSchedule().link_down(1.0, "a", "b", up_at=_NAN)),
    ("corpus.at", "event 0 (link-down @nan): 'at'",
     lambda tmp: _corpus_file(tmp, {"at": _NAN, "kind": "link-down",
                                    "a": "a", "b": "b"})),
    ("corpus.scale", "event 0 (latency-storm @1.0): 'scale'",
     lambda tmp: _corpus_file(tmp, {"at": 1.0, "kind": "latency-storm",
                                    "scale": _INF, "links": None})),
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
    ("DegradationManager.shed_fraction", "shed_fraction",
     lambda tmp: DegradationManager(Environment(), shed_fraction=2.0)),
    ("FuzzProfile.active", "active",
     lambda tmp: FuzzProfile("p", (-1.0, 10.0), 12.0)),
    ("FuzzProfile.max_ops", "max_ops",
     lambda tmp: FuzzProfile("p", (1.0, 10.0), 12.0, max_ops=0)),
    ("FuzzProfile.heal_by", "heal_by",
     lambda tmp: FuzzProfile("p", (1.0, 10.0), _NAN)),
]


@pytest.mark.parametrize("field, build", [case[1:] for case in _FAULT_BOUNDS],
                         ids=[case[0] for case in _FAULT_BOUNDS])
def test_a_fault_parameter_out_of_range_is_rejected_by_name(field, build,
                                                            tmp_path):
    """Unchecked, a NaN fault time never fires and a NaN storm never
    lifts; a NaN threshold never suspects anybody (``phi >= nan`` is
    false), a shed fraction of 2 raises inside the run at the first
    alert, and a profile with no operations crashes its generator."""
    with pytest.raises(errors.SimulationError,
                       match="^" + re.escape(field) + " must be"):
        build(tmp_path)
