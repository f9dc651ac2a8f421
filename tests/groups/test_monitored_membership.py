"""Tests for failure-detection-driven membership."""

import pytest

from repro.errors import GroupError
from repro.groups import MonitoredMembership, ProcessGroup
from repro.net import Network, lan
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_group(env, members=4):
    topo = lan(env, hosts=members)
    net = Network(env, topo)
    group = ProcessGroup(net, "g", ordering="fifo")
    for i in range(members):
        group.join("host{}".format(i))
    return group


def test_monitoring_empty_group_rejected(env):
    topo = lan(env, hosts=1)
    net = Network(env, topo)
    group = ProcessGroup(net, "empty")
    with pytest.raises(GroupError):
        MonitoredMembership(group)


def test_healthy_members_stay_in_view(env):
    group = make_group(env)
    MonitoredMembership(group, interval=0.5, suspect_after=2.0)
    env.run(until=10.0)
    assert len(group.view) == 4


def test_crashed_member_removed_from_view(env):
    group = make_group(env)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0)
    view_before = group.view.view_id

    def crash_later(env):
        yield env.timeout(3.0)
        membership.crash("host2")

    env.process(crash_later(env))
    env.run(until=12.0)
    assert "host2" not in group.view
    assert len(group.view) == 3
    assert group.view.view_id > view_before
    # Survivors still communicate.
    group.endpoint("host0").broadcast("still-here")
    env.run(until=13.0)
    assert [m.payload for m in
            group.endpoint("host1").delivered_log] == ["still-here"]


def test_crash_unmonitored_member_rejected(env):
    group = make_group(env)
    membership = MonitoredMembership(group)
    with pytest.raises(GroupError):
        membership.crash("ghost")
    with pytest.raises(GroupError):
        membership.restart("ghost")
    # The coordinator has no sender either (it hosts the monitor).
    with pytest.raises(GroupError):
        membership.crash("host0")


def test_restarted_member_rejoins_the_conversation(env):
    """Suspected out and restarted, a member hears and is heard again."""
    group = make_group(env)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0)
    for i in range(3):
        group.endpoint("host0").broadcast(("early", i))
        group.endpoint("host2").broadcast(("early-2", i))
    membership.crash("host2")
    env.run(until=6.0)
    assert "host2" not in group.view
    group.endpoint("host0").broadcast("missed")
    membership.restart("host2")
    env.run(until=6.1)  # host2's first heartbeat re-admits it
    back = group.endpoint("host2")
    group.endpoint("host0").broadcast("welcome back")
    back.broadcast("thanks")
    env.run(until=8.0)
    assert "host2" in group.view
    # Nothing from before the rejoin, everything from after it.
    assert sorted(m.payload for m in back.delivered_log) == [
        "thanks", "welcome back"]
    heard = [m.payload for m in group.endpoint("host1").delivered_log]
    assert heard[-3] == "missed"
    assert sorted(heard[-2:]) == ["thanks", "welcome back"]
