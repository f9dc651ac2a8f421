"""Edge paths of the platform facade and network services."""

import pytest

from repro import CooperativePlatform
from repro.errors import GroupError
from repro.net import MulticastService, Network, star
from repro.sim import Environment


def test_platform_port_allocation_monotonic():
    platform = CooperativePlatform(sites=2, hosts_per_site=1)
    first = platform.allocate_port(span=2)
    second = platform.allocate_port()
    assert second == first + 2


def test_two_documents_in_one_session_do_not_collide():
    platform = CooperativePlatform(sites=2, hosts_per_site=1, seed=3)
    members = platform.host_names()
    session = platform.create_session("s", members)
    minutes = session.shared_document("minutes", initial="m:")
    actions = session.shared_document("actions", initial="a:")
    minutes.client(members[0]).insert(2, "agree scope")
    actions.client(members[1]).insert(2, "send draft")
    platform.run()
    assert minutes.converged and actions.converged
    assert minutes.server.core.text == "m:agree scope"
    assert actions.server.core.text == "a:send draft"


def test_two_sessions_groups_are_isolated():
    platform = CooperativePlatform(sites=2, hosts_per_site=1, seed=4)
    members = platform.host_names()
    one = platform.create_session("one", members, ordering="fifo")
    two = platform.create_session("two", members, ordering="fifo")
    one.broadcast(members[0], "to-one")
    two.broadcast(members[1], "to-two")
    platform.run()
    one_log = [m.payload for m in
               one.group.endpoint(members[1]).delivered_log]
    two_log = [m.payload for m in
               two.group.endpoint(members[0]).delivered_log]
    assert one_log == ["to-one"]
    assert two_log == ["to-two"]


def test_session_store_history_enabled():
    platform = CooperativePlatform(sites=2, hosts_per_site=1)
    members = platform.host_names()
    session = platform.create_session("s", members)
    session.session.store.write("k", 1, writer=members[0], at=0.0)
    assert len(session.session.store.history()) == 1


def test_multicast_send_to_self_only_group():
    env = Environment()
    topo = star(env, leaves=2)
    net = Network(env, topo)
    service = MulticastService(net)
    group = service.create_group("solo")
    net.host("leaf0")
    group.join("leaf0")
    # Sending to a group containing only yourself delivers nothing and
    # must not error.
    packets = service.send("solo", "leaf0", payload="echo")
    env.run()
    assert packets == []


def test_multicast_unicast_fanout_unknown_group():
    env = Environment()
    topo = star(env, leaves=2)
    net = Network(env, topo)
    service = MulticastService(net)
    with pytest.raises(GroupError):
        service.unicast_fanout("ghost", "leaf0")


def test_multicast_unreachable_member_dropped_silently():
    env = Environment()
    topo = star(env, leaves=3)
    net = Network(env, topo)
    service = MulticastService(net)
    group = service.create_group("g")
    for i in range(3):
        net.host("leaf{}".format(i))
        group.join("leaf{}".format(i))
    # Cut leaf2's access link: the tree simply omits it.
    topo.link_between("leaf2", "hub").set_up(False)
    topo.invalidate_routes()
    received = []
    net.hosts["leaf1"].on_packet(service.port,
                                 lambda p: received.append(p.payload))
    service.send("g", "leaf0", payload="x")
    env.run()
    assert received == ["x"]


def test_platform_runtime_and_qos_available():
    platform = CooperativePlatform(sites=2, hosts_per_site=1)
    # The ODP runtime and broker are first-class parts of the facade.
    nucleus = platform.runtime.nucleus(platform.host_names()[1])
    capsule = nucleus.create_capsule()
    obj = nucleus.create_object(capsule, "shared-thing", state={"n": 1})
    obj.operation("read", lambda caller, state, args: state["n"])

    def root(env):
        yield env.timeout(0.5)  # allow registration to propagate
        value = yield platform.runtime.nucleus(
            platform.host_names()[0]).invoke(obj.oid, "read")
        return value

    proc = platform.env.process(root(platform.env))
    platform.run(proc)
    assert proc.value == 1
