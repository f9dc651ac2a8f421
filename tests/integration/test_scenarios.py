"""End-to-end scenarios across the whole middleware stack."""

import pytest

from repro import CooperativePlatform
from repro.qos import QoSParameters
from repro.sessions import ASYNCHRONOUS, REMOTE, SYNCHRONOUS
from repro.streams import MediaSink, MediaSource, StreamBinding


def test_design_review_lifecycle():
    """A full meeting: join, edit, transition to async, late work."""
    platform = CooperativePlatform(sites=3, hosts_per_site=2, seed=101)
    members = platform.host_names()[:3]
    session = platform.create_session("review", members,
                                      floor="round-robin",
                                      time_mode=SYNCHRONOUS)

    # Synchronous phase: everyone edits the shared minutes.
    doc = session.shared_document("minutes", initial="")
    doc.client(members[0]).insert(0, "AGENDA|")
    doc.client(members[1]).insert(0, "(v2)")
    platform.run()
    assert doc.converged
    synchronous_text = doc.server.core.text
    assert "AGENDA" in synchronous_text

    # Transition to asynchronous work — state survives.
    session.session.switch_mode(time_mode=ASYNCHRONOUS)
    assert session.session.quadrant == (ASYNCHRONOUS, REMOTE)
    doc.client(members[2]).insert(len(doc.client(members[2]).text),
                                  "|ACTIONS")
    platform.run()
    assert doc.converged
    assert "ACTIONS" in doc.server.core.text
    assert synchronous_text.replace("|ACTIONS", "") in \
        doc.server.core.text


def test_awareness_spans_concurrency_mechanisms():
    """Store writes via any mechanism surface on the awareness bus."""
    platform = CooperativePlatform(sites=2, hosts_per_site=1, seed=102)
    members = platform.host_names()
    session = platform.create_session("aware", members)
    observed = []
    session.workspace.watch(members[1],
                            lambda event: observed.append(
                                (event.actor, event.artefact)))
    store = session.session.store
    store.write("strip/BA100", {"level": 340}, writer=members[0],
                at=platform.env.now)
    store.write("strip/BA101", {"level": 320}, writer=members[0],
                at=platform.env.now)
    platform.run()
    assert len(observed) == 2
    assert all(actor == members[0] for actor, _ in observed)


def test_conference_with_reserved_and_besteffort_flows():
    """Two flows compete; the reserved one keeps its deadlines."""
    platform = CooperativePlatform(sites=2, hosts_per_site=2,
                                   site_latency=0.01, seed=103)
    hosts = platform.host_names()
    reserved = platform.open_media_flow(
        hosts[0], hosts[2], rate=25.0, frame_size=4000,
        desired=QoSParameters(throughput=8e5, latency=0.2, jitter=0.15,
                              loss=0.05))
    # A platform flow is always reserved; the best-effort one is bound
    # by hand, as a binding with no contract.
    binding = StreamBinding(platform.network, hosts[1], hosts[3],
                            port=platform.allocate_port())
    besteffort_sink = MediaSink(platform.env, hosts[3] + "-sink")
    binding.attach_sink(besteffort_sink)
    besteffort = MediaSource(platform.env, hosts[1] + "-source",
                             binding.send_frame, rate=25.0, frame_size=4000)
    # Background flooders saturate the shared WAN link.
    flooder = platform.network.host(hosts[1])

    def flood(env):
        while env.now < 4.0:
            flooder.send(hosts[3], size=9000)
            yield env.timeout(0.004)  # ~18 Mb/s offered on a 10 Mb/s link

    platform.env.process(flood(platform.env))
    reserved.start(duration=4.0)
    besteffort.start(duration=4.0)
    platform.run(until=4.5)
    assert reserved.sink.miss_rate < 0.05
    assert besteffort_sink.miss_rate > reserved.sink.miss_rate


def test_session_church_with_document_convergence():
    """Members come and go; the document still converges."""
    platform = CooperativePlatform(sites=3, hosts_per_site=1, seed=104)
    members = platform.host_names()
    session = platform.create_session("churny", members)
    doc = session.shared_document("doc", initial="")

    def churner(env):
        doc.client(members[0]).insert(0, "a")
        yield env.timeout(0.5)
        session.session.leave(members[2])
        doc.client(members[1]).insert(0, "b")
        yield env.timeout(0.5)
        session.session.join(members[2])
        doc.client(members[2]).insert(0, "c")

    platform.env.process(churner(platform.env))
    platform.run()
    assert doc.converged
    assert sorted(doc.server.core.text) == ["a", "b", "c"]


def test_atc_board_with_role_based_access():
    """The §2.3 flight-strip board guarded by dynamic roles."""
    from repro.access import READ, Role, RoleBasedPolicy, WRITE
    from repro.errors import AccessDenied

    platform = CooperativePlatform(sites=1, hosts_per_site=3,
                                   topology="lan", seed=105)
    north, south, trainee = platform.host_names()
    session = platform.create_session("sector", [north, south, trainee])
    policy = RoleBasedPolicy()
    policy.define(Role("controller").allow("board/*", WRITE))
    policy.define(Role("observer").allow("board/*", READ))
    policy.assign(north, "controller")
    policy.assign(trainee, "observer")

    def place_strip(who, callsign):
        policy.require(who, "board/" + callsign, WRITE)
        session.session.store.write("board/" + callsign, "FL340",
                                    writer=who, at=platform.env.now)

    place_strip(north, "BA100")
    with pytest.raises(AccessDenied):
        place_strip(trainee, "BA101")
    # Mid-shift the trainee qualifies: the role change is immediate.
    policy.assign(trainee, "controller", at=platform.env.now)
    place_strip(trainee, "BA101")
    platform.run()
    assert "board/BA101" in session.session.store


def test_mobile_member_rejoins_and_syncs():
    """A disconnected colleague reintegrates field edits."""
    from repro.concurrency import SharedStore
    from repro.mobility import MobileCache, MobileHost, StoreServer
    from repro.net import ConnectivityLevel

    platform = CooperativePlatform(sites=2, hosts_per_site=1, seed=106)
    env = platform.env
    store = SharedStore("workspace")
    store.write("notes", "office v1", writer="office")
    server = StoreServer(platform.network, "site0.host0", store)
    mobile = MobileHost(platform.network, "fieldpad", "site1.router",
                        level=ConnectivityLevel.FULL)
    cache = MobileCache(mobile, server)

    def trip(env):
        yield from cache.hoard(["notes"])
        mobile.set_level(ConnectivityLevel.DISCONNECTED)
        yield from cache.write("notes", "field v2")
        yield env.timeout(100.0)
        mobile.set_level(ConnectivityLevel.PARTIAL)
        applied, conflicted = yield from cache.reintegrate()
        return (applied, conflicted)

    proc = env.process(trip(env))
    env.run(proc)
    assert proc.value == (1, 0)
    assert store.read("notes") == "field v2"
