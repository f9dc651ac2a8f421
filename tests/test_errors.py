"""The error hierarchy: every library error is a ReproError."""

import inspect

import pytest

from repro import errors
from repro.access import AccessMatrix
from repro.awareness import AwarenessBus
from repro.net import Link
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
