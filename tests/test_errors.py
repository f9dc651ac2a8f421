"""The error hierarchy: every library error is a ReproError."""

import inspect

import pytest

from repro import errors
from repro.access import AccessMatrix
from repro.awareness import AwarenessBus
from repro.sessions import TelepointerService
from repro.sim import Environment
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
