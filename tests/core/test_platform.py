"""Integration tests for the CooperativePlatform facade."""

import pytest

from repro import CooperativePlatform
from repro.errors import ReproError, SessionError
from repro.qos import QoSParameters


@pytest.fixture
def platform():
    return CooperativePlatform(sites=3, hosts_per_site=2, seed=1)


def test_platform_host_names(platform):
    hosts = platform.host_names()
    assert len(hosts) == 6
    assert hosts[0] == "site0.host0"


def test_platform_lan_topology():
    platform = CooperativePlatform(sites=2, hosts_per_site=2,
                                   topology="lan")
    assert platform.host_names() == ["host0", "host1", "host2", "host3"]


def test_platform_unknown_topology():
    with pytest.raises(ReproError):
        CooperativePlatform(topology="torus")


def test_create_session_joins_members(platform):
    members = platform.host_names()[:3]
    session = platform.create_session("review", members)
    assert session.members == members
    assert len(session.group.view) == 3
    with pytest.raises(SessionError):
        platform.create_session("review", members)
    with pytest.raises(SessionError):
        platform.create_session("other", ["nowhere.host9"])


def test_floor_policy_selection(platform):
    members = platform.host_names()[:2]
    for i, policy in enumerate(["free", "fcfs", "round-robin",
                                "chaired", "negotiated"]):
        session = platform.create_session("s{}".format(i), members,
                                          floor=policy)
        assert session.session.floor is not None
    none_floor = platform.create_session("s-none", members, floor=None)
    assert none_floor.session.floor is None
    with pytest.raises(SessionError):
        platform.create_session("s-bad", members, floor="thunderdome")


def test_session_broadcast_is_ordered(platform):
    members = platform.host_names()[:3]
    session = platform.create_session("chat", members, ordering="total")
    for i, member in enumerate(members):
        session.broadcast(member, "msg-{}".format(i))
    platform.run()
    logs = [[m.payload for m in session.group.endpoint(member)
             .delivered_log] for member in members]
    assert all(log == logs[0] and len(log) == 3 for log in logs)


def test_shared_document_lifecycle(platform):
    members = platform.host_names()[:3]
    session = platform.create_session("writing", members)
    doc = session.shared_document("paper", initial="base ")
    doc.client(members[0]).insert(5, "alpha ")
    doc.client(members[1]).insert(0, ">")
    platform.run()
    assert doc.converged
    texts = doc.texts()
    assert len(set(texts.values())) == 1
    with pytest.raises(SessionError):
        doc.client("site9.host9")


def test_workspace_awareness_flows(platform):
    members = platform.host_names()[:2]
    session = platform.create_session("aware", members)
    seen = []
    session.workspace.watch(members[1], seen.append)
    session.session.store.write("strip", "FL340", writer=members[0],
                                at=platform.env.now)
    platform.run()
    assert len(seen) == 1
    assert seen[0].artefact == "strip"


def test_media_flow_with_reservation(platform):
    hosts = platform.host_names()
    flow = platform.open_media_flow(hosts[0], hosts[2], rate=10.0,
                                    frame_size=2000)
    flow.start(duration=1.0)
    # Stop just after the last frame plays but before the monitor sees
    # an idle window (the stream has ended; starvation would be flagged).
    platform.run(until=1.5)
    assert flow.sink.counters["played"] == 10
    assert flow.sink.deadline_misses == 0
    assert flow.monitor is not None
    assert flow.binding.contract.is_active
    platform.qos.release(flow.binding.contract)
    assert not flow.binding.contract.is_active


def test_media_flow_custom_qos(platform):
    hosts = platform.host_names()
    desired = QoSParameters(throughput=5e5, latency=0.3, jitter=0.2,
                            loss=0.1)
    flow = platform.open_media_flow(hosts[0], hosts[3], rate=10.0,
                                    desired=desired)
    assert flow.binding.contract.agreed.throughput == 5e5


def test_quickstart_docstring_scenario():
    platform = CooperativePlatform(sites=3, hosts_per_site=2)
    members = platform.host_names()[:3]
    session = platform.create_session("design-review", members)
    doc = session.shared_document("minutes", initial="Agenda:\n")
    doc.client(members[0]).insert(7, "\n- QoS")
    platform.run()
    assert doc.converged
    assert "- QoS" in doc.server.core.text
