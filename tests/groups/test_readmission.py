"""Re-admission: a suspected member's own heartbeat brings it back."""

import pytest

from repro.faults.detector import PhiAccrualDetector
from repro.groups import MonitoredMembership, ProcessGroup
from repro.net import Network, lan
from repro.sim import Environment

STRATEGIES = {
    "fixed-timeout": lambda: None,
    "phi": lambda: PhiAccrualDetector(threshold=8.0, min_samples=3,
                                      bootstrap_interval=0.5),
}


def monitored(strategy=None, members=4):
    env = Environment()
    net = Network(env, lan(env, hosts=members))
    group = ProcessGroup(net, "g", ordering="causal")
    for i in range(members):
        group.join("host{}".format(i))
    membership = MonitoredMembership(group, interval=0.5,
                                     suspect_after=2.0, strategy=strategy)
    views = []
    group.on_view(lambda view: views.append(
        (env.now, view.view_id, view.members)))
    return env, group, membership, views


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_three_crash_restart_cycles_end_in_the_view(strategy):
    env, group, membership, views = monitored(STRATEGIES[strategy]())

    def cycles(env):
        for _ in range(3):
            yield env.timeout(3.0)
            membership.crash("host2")
            yield env.timeout(10.0)
            assert "host2" not in group.view
            membership.restart("host2")

    env.process(cycles(env))
    env.run(until=50.0)
    ids = [view_id for _, view_id, _ in views]
    assert ids == sorted(set(ids))
    # Each cycle is one removal and one re-admission.
    assert [("host2" in members) for _, _, members in views] \
        == [False, True] * 3
    assert "host2" in group.view
    assert len(group.view) == 4
    assert not membership.monitor.is_suspected("host2")


def test_a_crashed_member_stays_out():
    env, group, membership, views = monitored()
    membership.crash("host2")
    env.run(until=30.0)
    assert "host2" not in group.view
    assert len(views) == 1
    assert membership.monitor.is_suspected("host2")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_suspicion_after_a_readmission(strategy):
    """A re-admitted member that goes silent again is suspected again:
    the one monitor orders suspicion and return, so the second
    suspicion removes the member the return put back."""
    env, group, membership, views = monitored(STRATEGIES[strategy]())
    suspected = []
    reaction = membership.monitor.on_suspect

    def on_suspect(member):
        suspected.append(env.now)
        reaction(member)

    membership.monitor.on_suspect = on_suspect
    sender = membership.senders["host1"]

    def blip(env):
        yield env.timeout(2.0)
        sender.stop()
        yield env.timeout(6.0)
        sender.restart()
        yield env.timeout(4.0)
        sender.stop()

    env.process(blip(env))
    env.run(until=25.0)
    assert len(suspected) == 2
    assert [("host1" in members) for _, _, members in views] \
        == [False, True, False]
    returned_at = views[1][0]
    assert suspected[0] < returned_at < suspected[1]
    assert "host1" not in group.view


def test_a_return_leaves_the_silence_out_of_the_fit():
    detector = STRATEGIES["phi"]()
    env, group, membership, views = monitored(detector)
    sender = membership.senders["host3"]

    def blip(env):
        yield env.timeout(5.0)
        sender.stop()
        yield env.timeout(6.0)
        assert detector.intervals_observed("host3") > 0
        sender.restart()

    env.process(blip(env))
    env.run(until=11.1)
    assert "host3" in group.view
    assert detector.intervals_observed("host3") == 0
