"""Tests for process groups over the simulated network."""

import pytest

from repro.errors import GroupError, MembershipError
from repro.groups import GroupView, ProcessGroup
from repro.net import Network, lan, wan
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_group(env, members=3, ordering="causal", hosts=None):
    topo = lan(env, hosts=max(members, hosts or members))
    net = Network(env, topo)
    group = ProcessGroup(net, "g", ordering=ordering)
    endpoints = [group.join("host{}".format(i)) for i in range(members)]
    return group, endpoints


def test_view_basics():
    view = GroupView(1, ("b", "a"))
    assert view.members == ("a", "b")
    assert view.coordinator == "a"
    assert "a" in view
    assert len(view) == 2


def test_empty_view_has_no_coordinator():
    view = GroupView(0, ())
    with pytest.raises(MembershipError):
        _ = view.coordinator


def test_unknown_ordering_rejected(env):
    topo = lan(env, hosts=2)
    net = Network(env, topo)
    with pytest.raises(GroupError):
        ProcessGroup(net, "g", ordering="alphabetical")


def test_join_installs_views(env):
    group, endpoints = make_group(env, members=3)
    assert group.view.view_id == 3  # one view per join
    for endpoint in endpoints:
        assert endpoint.view.view_id == 3
        assert len(endpoint.view) == 3
    assert group.coordinator == "host0"


def test_double_join_rejected(env):
    group, _ = make_group(env, members=2)
    with pytest.raises(MembershipError):
        group.join("host0")


def test_leave_updates_view(env):
    group, _ = make_group(env, members=3)
    group.leave("host1")
    assert len(group.view) == 2
    assert "host1" not in group.view


def test_leave_nonmember_rejected(env):
    group, _ = make_group(env, members=2)
    with pytest.raises(MembershipError):
        group.leave("host9")


def test_endpoint_lookup(env):
    group, endpoints = make_group(env, members=2)
    assert group.endpoint("host0") is endpoints[0]
    with pytest.raises(MembershipError):
        group.endpoint("ghost")


def test_broadcast_reaches_all_members(env):
    group, endpoints = make_group(env, members=3, ordering="fifo")
    endpoints[0].broadcast("hello", size=50)
    env.run()
    for endpoint in endpoints:
        assert [m.payload for m in endpoint.delivered_log] == ["hello"]


def test_broadcast_by_nonmember_rejected(env):
    group, _ = make_group(env, members=2, hosts=3)
    host = group.network.host("host2")
    from repro.groups.group import GroupEndpoint

    rogue = GroupEndpoint(group, host)  # attached but never joined
    with pytest.raises(MembershipError):
        rogue.broadcast("x")


def test_fifo_order_respected_per_sender(env):
    group, endpoints = make_group(env, members=3, ordering="fifo")
    for i in range(5):
        endpoints[0].broadcast(i)
    env.run()
    for endpoint in endpoints:
        assert [m.payload for m in endpoint.delivered_log] == list(range(5))


def test_total_order_identical_everywhere(env):
    group, endpoints = make_group(env, members=4, ordering="total")
    # Concurrent broadcasts from several members.
    for i, endpoint in enumerate(endpoints):
        endpoint.broadcast("m{}".format(i))
    env.run()
    sequences = [[m.payload for m in e.delivered_log] for e in endpoints]
    assert all(len(seq) == 4 for seq in sequences)
    assert all(seq == sequences[0] for seq in sequences)


def test_coordinator_total_order_broadcast_returns_before_any_delivery(env):
    """The coordinator's own ord-req is a datagram to itself: it is
    sequenced and fanned out at the same instant but after broadcast()
    returned — never re-entrantly, in the middle of the caller."""
    group, endpoints = make_group(env, members=3, ordering="total")
    coordinator = group.endpoint(group.coordinator)
    log = []
    for endpoint in endpoints:
        endpoint.on_deliver(lambda message, name=endpoint.name:
                            log.append((name, env.now)))

    def talker(env):
        yield env.timeout(1.0)
        coordinator.broadcast("hello")
        log.append("broadcast() returned")

    env.process(talker(env))
    env.run()
    assert log[:2] == ["broadcast() returned", (coordinator.name, 1.0)]
    assert sorted(name for name, _ in log[1:]) == \
        sorted(endpoint.name for endpoint in endpoints)


def test_causal_order_replies_follow_originals(env):
    """A reply broadcast after seeing a message is never delivered first."""
    group, endpoints = make_group(env, members=3, ordering="causal")
    asker, replier, observer = endpoints

    def conversation(env):
        asker.broadcast("question")
        message = yield replier.receive()
        assert message.payload == "question"
        replier.broadcast("answer")

    env.process(conversation(env))
    env.run()
    observed = [m.payload for m in observer.delivered_log]
    assert observed == ["question", "answer"]


def test_delivery_callbacks(env):
    group, endpoints = make_group(env, members=2, ordering="fifo")
    seen = []
    endpoints[1].on_deliver(lambda message: seen.append(message.payload))
    endpoints[0].broadcast("ping")
    env.run()
    assert seen == ["ping"]


def test_loopback_delivery_to_sender(env):
    group, endpoints = make_group(env, members=2, ordering="fifo")
    endpoints[0].broadcast("note")
    env.run()
    assert [m.payload for m in endpoints[0].delivered_log] == ["note"]


def test_fail_member_removes_from_view(env):
    group, _ = make_group(env, members=3)
    group.fail_member("host2")
    assert "host2" not in group.view
    group.fail_member("host2")  # idempotent
    assert len(group.view) == 2


def test_group_over_wan_total_order(env):
    topo = wan(env, sites=3, hosts_per_site=1)
    net = Network(env, topo)
    group = ProcessGroup(net, "wide", ordering="total")
    members = ["site{}.host0".format(i) for i in range(3)]
    endpoints = [group.join(m) for m in members]
    for i, endpoint in enumerate(endpoints):
        endpoint.broadcast(i)
    env.run()
    sequences = [[m.payload for m in e.delivered_log] for e in endpoints]
    assert all(seq == sequences[0] and len(seq) == 3 for seq in sequences)


# -- joining a group that already has traffic behind it -----------------------

ORDERINGS = ["unordered", "fifo", "causal", "total"]


def payloads(endpoint):
    return [m.payload for m in endpoint.delivered_log]


def held(endpoint):
    return getattr(endpoint._ordering, "held_count", 0)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_late_joiner_delivers_what_is_sent_after_it_joined(env, ordering):
    group, (first, _) = make_group(env, members=2, ordering=ordering,
                                   hosts=3)
    for i in range(3):
        first.broadcast(("before", i))
    env.run()
    late = group.join("host2")
    for i in range(3):
        first.broadcast(("after", i))
    env.run()
    assert payloads(late) == [("after", i) for i in range(3)]
    assert held(late) == 0
    late.broadcast("hello")
    env.run()
    for endpoint in group.endpoints.values():
        assert payloads(endpoint)[-1] == "hello"


def test_late_joiner_does_not_wait_for_a_cause_sent_before_it_joined(env):
    """The reply's vector names the question, which the joiner never gets."""
    group, (asker, replier) = make_group(env, members=2, hosts=3)
    asker.broadcast("question")
    env.run()
    late = group.join("host2")
    reply = replier.broadcast("reply")
    assert reply.vector == {"host0": 1, "host1": 1}
    env.run()
    assert payloads(late) == ["reply"]
    assert held(late) == 0


def test_late_joiner_does_not_wait_for_a_cause_from_a_departed_member(env):
    group, (asker, replier) = make_group(env, members=2, hosts=3)
    asker.broadcast("question")
    env.run()
    group.leave("host0")
    late = group.join("host2")
    replier.broadcast("reply")
    env.run()
    assert payloads(late) == ["reply"]
    assert held(late) == 0


def test_rejoin_drops_what_was_addressed_to_the_previous_incarnation(env):
    """Leave and rejoin on the same host while a broadcast is in flight."""
    group, (stayer, leaver) = make_group(env, members=2)
    leaver.broadcast("mine")
    env.run()
    stayer.broadcast("in flight")
    group.leave("host1")
    again = group.join("host1")  # takes over host1's group port
    env.run()
    assert payloads(again) == []  # sent before the cut: stale, not held
    assert held(again) == 0
    stayer.broadcast("after")
    env.run()
    assert payloads(again) == ["after"]


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_rejoined_member_is_heard_again(env, ordering):
    """Its numbering continues where the previous incarnation stopped."""
    group, (stayer, leaver) = make_group(env, members=2, ordering=ordering)
    for i in range(2):
        leaver.broadcast(("first life", i))
    env.run()
    group.leave("host1")
    again = group.join("host1")
    again.broadcast("second life")
    env.run()
    assert payloads(stayer)[-1] == "second life"
    assert payloads(again) == ["second life"]
    assert held(stayer) == held(again) == 0
