"""Tests for heartbeat failure detection and group invocation."""

import os
import subprocess
import sys

import pytest

from repro.errors import GroupError
from repro.groups import (
    GroupInvoker,
    HeartbeatMonitor,
    HeartbeatSender,
    QUORUM_ALL,
    QUORUM_ANY,
    QUORUM_MAJORITY,
)
from repro.net import Network, lan
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_net(env, hosts=4):
    topo = lan(env, hosts=hosts)
    return Network(env, topo)


def test_heartbeat_keeps_member_alive(env):
    net = make_net(env)
    monitor = HeartbeatMonitor(net.host("host0"), ["host1"],
                               suspect_after=2.0, check_interval=0.5)
    HeartbeatSender(net.host("host1"), "host0", interval=0.5)
    env.run(until=10.0)
    assert not monitor.is_suspected("host1")


def test_silent_member_suspected(env):
    net = make_net(env)
    suspects = []
    monitor = HeartbeatMonitor(net.host("host0"), ["host1"],
                               suspect_after=2.0, check_interval=0.5,
                               on_suspect=suspects.append)
    sender = HeartbeatSender(net.host("host1"), "host0", interval=0.5)

    def crash(env):
        yield env.timeout(3.0)
        sender.stop()

    env.process(crash(env))
    env.run(until=10.0)
    assert suspects == ["host1"]
    assert monitor.is_suspected("host1")


def test_reappearing_member_unsuspected(env):
    net = make_net(env)
    monitor = HeartbeatMonitor(net.host("host0"), ["host1"],
                               suspect_after=1.0, check_interval=0.25)
    # No sender at all initially: host1 will be suspected...
    env.run(until=2.0)
    assert monitor.is_suspected("host1")
    # ...then heartbeats resume.
    HeartbeatSender(net.host("host1"), "host0", interval=0.25)
    env.run(until=4.0)
    assert not monitor.is_suspected("host1")


def test_return_clears_suspicion_and_is_reported(env):
    net = make_net(env)
    returned = []
    monitor = HeartbeatMonitor(net.host("host0"), ["host1"],
                               suspect_after=1.0, check_interval=0.25,
                               on_return=returned.append)
    env.run(until=2.0)
    assert monitor.is_suspected("host1")
    assert returned == []
    HeartbeatSender(net.host("host1"), "host0", interval=0.25)
    env.run(until=2.1)
    assert not monitor.is_suspected("host1")
    assert returned == ["host1"]
    # Watched afresh from the return: the silence before it is gone.
    assert 2.0 <= monitor.last_heard["host1"] < 2.1


def test_monitor_validation(env):
    net = make_net(env)
    with pytest.raises(GroupError):
        HeartbeatMonitor(net.host("host0"), [], suspect_after=0)
    with pytest.raises(GroupError):
        HeartbeatSender(net.host("host1"), "host0", interval=0)


def make_invoker(env, servers=3):
    net = make_net(env, hosts=servers + 1)
    invoker = GroupInvoker(net, "host0")
    members = []
    for i in range(1, servers + 1):
        name = "host{}".format(i)
        endpoint = invoker.serve(name)
        endpoint.register("start_camera",
                          lambda caller, args, n=name: (n, "started"))
        members.append(name)
    return invoker, members


def test_group_call_all_replies(env):
    invoker, members = make_invoker(env)

    def root(env):
        result = yield invoker.call(members, "start_camera",
                                    deadline=1.0)
        return result

    proc = env.process(root(env))
    env.run(proc)
    result = proc.value
    assert result.quorum_met
    assert result.replied == 3
    assert set(result.results) == set(members)


def test_group_call_any_quorum_returns_early(env):
    invoker, members = make_invoker(env)

    def root(env):
        result = yield invoker.call(members, "start_camera",
                                    deadline=1.0, quorum=QUORUM_ANY)
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value.quorum_met
    assert proc.value.replied >= 1


def test_group_call_majority_quorum(env):
    invoker, members = make_invoker(env, servers=5)

    def root(env):
        result = yield invoker.call(members, "start_camera",
                                    deadline=1.0, quorum=QUORUM_MAJORITY)
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value.quorum_met
    assert proc.value.replied >= 3


def test_group_call_deadline_miss(env):
    net = make_net(env, hosts=3)
    invoker = GroupInvoker(net, "host0")
    server = invoker.serve("host1")

    def slow(caller, args):
        yield env.timeout(5.0)
        return "late"

    server.register("slow_op", slow)

    def root(env):
        result = yield invoker.call(["host1"], "slow_op", deadline=0.5)
        return result

    proc = env.process(root(env))
    env.run(proc)
    result = proc.value
    assert not result.quorum_met
    assert result.errors == {"host1": "deadline"}


def test_group_call_member_error_collected(env):
    net = make_net(env, hosts=3)
    invoker = GroupInvoker(net, "host0")
    good = invoker.serve("host1")
    bad = invoker.serve("host2")
    good.register("op", lambda caller, args: "ok")

    def failing(caller, args):
        raise RuntimeError("camera jammed")

    bad.register("op", failing)

    def root(env):
        result = yield invoker.call(["host1", "host2"], "op",
                                    deadline=1.0)
        return result

    proc = env.process(root(env))
    env.run(proc)
    result = proc.value
    assert not result.quorum_met  # ALL quorum needs both
    assert result.results == {"host1": "ok"}
    assert "camera jammed" in result.errors["host2"]


def test_group_call_validation(env):
    invoker, members = make_invoker(env)
    with pytest.raises(GroupError):
        invoker.call(members, "x", quorum="plurality")
    with pytest.raises(GroupError):
        invoker.call([], "x")


_LATE_MEMBERS = '''
from repro.groups import GroupInvoker
from repro.net import Network, lan
from repro.sim import Environment

env = Environment()
invoker = GroupInvoker(Network(env, lan(env, hosts=6)), "host0")
members = ["host5", "host2", "host4", "host1", "host3"]


def slow(caller, args):
    yield env.timeout(1.0)


for member in members:
    invoker.serve(member).register("slow_op", slow)
done = invoker.call(members, "slow_op", deadline=0.01)
env.run(done)
print(" ".join(done.value.errors))
'''


def test_deadline_errors_come_back_in_call_order_under_any_hash_seed():
    """The late members are reported in the order they were called,
    whatever order a set of their names iterates in."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    orders = []
    for hash_seed in ("0", "1"):
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed,
                           PYTHONPATH=os.path.join(root, "src"))
        orders.append(subprocess.run(
            [sys.executable, "-c", _LATE_MEMBERS], env=environment,
            capture_output=True, text=True, check=True).stdout.split())
    assert orders[0] == orders[1] == ["host5", "host2", "host4", "host1",
                                      "host3"]
