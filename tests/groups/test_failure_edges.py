"""Edge cases in heartbeat failure detection and membership."""

import pytest

from repro.groups import MonitoredMembership, ProcessGroup
from repro.groups.failure import HEARTBEAT_PORT, HeartbeatMonitor
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


def test_member_restart_after_suspicion_rejoins(env):
    group = make_group(env)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0)

    def crash_then_restart(env):
        yield env.timeout(3.0)
        membership.crash("host2")
        yield env.timeout(5.0)
        # Suspicion has removed host2 by now.  The restart resumes its
        # heartbeats, and the first one to arrive re-admits it.
        assert "host2" not in group.view
        removed_view = group.view.view_id
        membership.restart("host2")
        assert "host2" not in group.view
        yield env.timeout(0.1)
        assert "host2" in group.view
        assert group.view.view_id > removed_view

    proc = env.process(crash_then_restart(env))
    env.run(until=20.0)
    assert proc.value is None  # ran to completion
    # The rejoined member stays: its heartbeats resumed.
    assert "host2" in group.view
    assert len(group.view) == 4
    assert not membership.monitor.is_suspected("host2")


def test_restart_before_suspicion_is_benign(env):
    group = make_group(env)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=5.0)

    def bounce(env):
        yield env.timeout(2.0)
        membership.crash("host1")
        yield env.timeout(1.0)  # shorter than suspect_after
        membership.restart("host1")

    env.process(bounce(env))
    env.run(until=15.0)
    assert len(group.view) == 4
    assert membership.monitor.suspected == []


def test_quick_crash_and_restart_keeps_one_heartbeat_loop(env):
    group = make_group(env, members=3)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0)
    heard = []
    monitor = membership.monitor
    on_heartbeat = monitor._on_heartbeat

    def spy(packet):
        heard.append(packet.payload)
        on_heartbeat(packet)

    monitor.host.on_packet(HEARTBEAT_PORT, spy)

    def bounce(env):
        yield env.timeout(1.1)
        membership.crash("host1")
        yield env.timeout(0.1)  # shorter than one interval
        membership.restart("host1")

    env.process(bounce(env))
    env.run(until=4.9)
    # One heartbeat every 0.5 s from 0.0: ten, not eighteen.
    assert heard.count("host1") == 10


def test_monitor_crash_stops_suspecting(env):
    group = make_group(env)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0)

    def crash_both(env):
        yield env.timeout(3.0)
        membership.crash("host2")
        # The monitor itself dies before the suspicion timeout runs out.
        yield env.timeout(1.0)
        membership.monitor.stop()

    env.process(crash_both(env))
    env.run(until=20.0)
    # Nobody was suspected: a dead monitor must not mutate the view.
    assert len(group.view) == 4
    assert membership.monitor.suspected == []


def test_zero_heartbeat_cold_start_suspected(env):
    # A member that is watched but never sends a single heartbeat must
    # still be suspected (last_heard falls back to the watch time).
    topo = lan(env, hosts=3)
    net = Network(env, topo)
    suspected = []
    monitor = HeartbeatMonitor(net.host("host0"), ["host1", "host2"],
                               suspect_after=2.0, check_interval=0.5,
                               on_suspect=suspected.append)
    env.run(until=10.0)
    assert sorted(suspected) == ["host1", "host2"]
    assert monitor.is_suspected("host1")


def test_reappearing_member_clears_suspicion(env):
    group = make_group(env, members=3)
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0)
    monitor = membership.monitor
    # Suppress the view-changing reaction: we only exercise the
    # monitor's own bookkeeping here.
    monitor.on_suspect = None

    def bounce(env):
        yield env.timeout(2.0)
        sender = membership.senders["host1"]
        sender.stop()
        yield env.timeout(4.0)
        assert monitor.is_suspected("host1")
        sender.restart()

    env.process(bounce(env))
    env.run(until=15.0)
    assert not monitor.is_suspected("host1")
