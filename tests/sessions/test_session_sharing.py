"""Tests for sessions and both sharing styles."""

import pytest

from repro.errors import FloorControlError, SessionError, TransportError
from repro.sessions import (
    ASYNCHRONOUS,
    AwareSharedObject,
    CO_LOCATED,
    FcfsFloor,
    REMOTE,
    RoundRobinFloor,
    SYNCHRONOUS,
    Session,
    SingleUserApp,
    TransparentConference,
    identical_view,
    summary_view,
)
from repro.faults import FaultInjector, FaultSchedule
from repro.net import Network, Topology, wan
from repro.net.packet import HEADER_BYTES
from repro.sessions.sharing import DELTA_SIZE, INPUT_SIZE
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def hub(env, *nodes, **link):
    """A network of ``nodes`` on one hub, each link built with ``link``."""
    topology = Topology(env)
    for node in nodes:
        topology.add_link(node, "hub", **link)
    return Network(env, topology)


def users(env):
    """A network of alice, bob and an observer on one hub."""
    return hub(env, "alice", "bob", "observer")


def conference_on(network, members, display_size=2048):
    """A conference whose app (and floor) runs at ``app``, ``members``
    joined in order."""
    conference = TransparentConference(network, SingleUserApp(),
                                       FcfsFloor(network, "app"),
                                       display_size=display_size)
    for member in members:
        conference.join(member)
    return conference


# -- sessions -----------------------------------------------------------------

def test_session_modes_validated(env):
    with pytest.raises(SessionError):
        Session(users(env), "s", time_mode="sometimes")
    with pytest.raises(SessionError):
        Session(users(env), "s", place_mode="nearby")


def test_session_join_leave(env):
    session = Session(users(env), "design-meeting")
    session.join("alice")
    session.join("bob")
    assert session.members == ["alice", "bob"]
    with pytest.raises(SessionError):
        session.join("alice")
    session.leave("bob")
    assert session.members == ["alice"]
    with pytest.raises(SessionError):
        session.leave("bob")


def test_session_join_publishes_awareness(env):
    session = Session(users(env), "s")
    seen = []
    session.awareness.subscribe("observer", seen.append)
    session.join("alice")
    env.run()
    assert [event.action for event in seen] == ["join"]


def test_session_quadrant_and_transition(env):
    session = Session(users(env), "s", time_mode=SYNCHRONOUS, place_mode=REMOTE)
    assert session.quadrant == (SYNCHRONOUS, REMOTE)
    session.join("alice")
    session.store.write("doc", "content", writer="alice")
    quadrant = session.switch_mode(time_mode=ASYNCHRONOUS)
    assert quadrant == (ASYNCHRONOUS, REMOTE)
    # Seamless: state survived the transition.
    assert session.members == ["alice"]
    assert session.store.read("doc") == "content"
    assert session.transitions == [
        (0.0, "synchronous/remote", "asynchronous/remote")]


def test_session_transition_validation(env):
    session = Session(users(env), "s")
    with pytest.raises(SessionError):
        session.switch_mode(time_mode="never")
    with pytest.raises(SessionError):
        session.switch_mode(place_mode="mars")


def test_session_all_four_quadrants(env):
    session = Session(users(env), "s")
    quadrants = set()
    for time_mode in (SYNCHRONOUS, ASYNCHRONOUS):
        for place_mode in (CO_LOCATED, REMOTE):
            quadrants.add(session.switch_mode(time_mode, place_mode))
    assert len(quadrants) == 4


def test_leaving_member_releases_floor(env):
    network = users(env)
    floor = FcfsFloor(network, "observer")
    session = Session(network, "s", floor=floor)
    session.join("alice")
    floor.request("alice")
    env.run()
    assert floor.holds("alice")
    # A reclaim is the floor host's own act: no message, in the call.
    sent = network.counters["sent"]
    session.leave("alice")
    assert floor.holder is None
    assert network.counters["sent"] == sent


def test_transparent_conference_multicasts_display(env):
    network = hub(env, "app", "alice", "bob", "carol")
    conference = conference_on(network, ("alice", "bob", "carol"),
                               display_size=1000)

    def root(env):
        output = yield conference.submit("alice", "typed-x")
        return output

    proc = env.process(root(env))
    env.run()
    assert proc.value == "display:1 items"
    # Every member's screen updated: the links carry three display_size
    # datagrams, all three through the app's link.  So do alice's
    # request, the grant, her input and her release, each acked.
    assert all(len(screen) == 1
               for screen in conference.screens.values())
    [app_link] = network.topology.path("app", "hub")
    assert network.counters["sent"] == network.counters["delivered"] == 11
    assert (app_link.stats.packets, app_link.stats.bytes) == (
        11, 3 * (1000 + HEADER_BYTES) + INPUT_SIZE + 8 * HEADER_BYTES)


def test_transparent_conference_serialises_input(env):
    conference = conference_on(hub(env, "app", "alice", "bob"),
                               ("alice", "bob"))

    def member_turn(env, name, value):
        yield conference.submit(name, value)

    env.process(member_turn(env, "alice", 1))
    env.process(member_turn(env, "bob", 2))
    env.run()
    assert conference.app.state == [1, 2]  # one coherent stream


def test_transparent_conference_membership_required(env):
    conference = conference_on(hub(env, "app", "alice"), ())
    with pytest.raises(SessionError):
        conference.submit("stranger", "x")
    conference.join("alice")
    with pytest.raises(SessionError):
        conference.join("alice")


def test_submit_fires_when_the_submitters_screen_is_painted(env):
    """The input is applied when it reaches the app's host, which acks
    it and then sends the screens one after another on its one link, so
    the third member to join is painted after the ack's and two
    screens' transmissions there plus its own screen's flight: the
    delay grows with the group."""
    network = hub(env, "app", "alice", "bob", "carol", latency=0.01,
                  bandwidth=8e6)
    conference = conference_on(network, ("alice", "bob", "carol"),
                               display_size=1000)
    applied, painted = [], []
    handle = conference.app.handle
    conference.app.handle = lambda event: applied.append(env.now) or \
        handle(event)

    def carol(env):
        yield conference.submit("carol", "stroke")
        painted.append(env.now)

    env.process(carol(env))
    env.run()
    wire = 1000 + HEADER_BYTES
    path = network.topology.path("app", "carol")
    flight = sum(link.transmission_delay(wire) + link.latency
                 for link in path)
    # The request, the grant and the input each cross two 10 ms links.
    assert applied == [pytest.approx(0.06, abs=1e-3)]
    assert painted == [pytest.approx(
        applied[0] + path[0].transmission_delay(HEADER_BYTES)
        + 2 * path[0].transmission_delay(wire) + flight)]
    assert conference.screens["carol"] == [(painted[0], "display:1 items")]


def test_a_display_update_does_not_cross_a_partition():
    """Cut two sites apart: the member in the app's site is painted, the
    one cut off is not, and its screen is the one datagram dropped."""
    env = Environment()
    topology = wan(env, sites=2, hosts_per_site=2)
    network = Network(env, topology)
    conference = cut_conference(network)

    def member(env):
        yield env.timeout(2.0)
        yield conference.submit("site0.host1", "stroke")

    env.process(member(env))
    env.run(until=10.0)
    assert [len(conference.screens[name])
            for name in ("site0.host1", "site1.host0")] == [1, 0]
    assert network.drop_stats() == {"no-route": 1}


def cut_conference(network):
    """A conference at ``site0.host0`` with one member at each site,
    the two sites cut apart at 1 s."""
    conference = TransparentConference(
        network, SingleUserApp(), FcfsFloor(network, "site0.host0"))
    conference.join("site0.host1")
    conference.join("site1.host0")
    topology = network.topology
    site0 = [node for node in topology.nodes if node.startswith("site0.")]
    site1 = [node for node in topology.nodes if node.startswith("site1.")]
    FaultInjector(network.env, network,
                  FaultSchedule().partition(1.0, [site0, site1]))
    return conference


def test_a_member_cut_off_from_the_app_cannot_submit():
    """The cut-off member's request for the floor never reaches the
    app's host: its submit fails with the send's error, the app never
    sees the input, and nothing is left waiting."""
    env = Environment()
    network = Network(env, wan(env, sites=2, hosts_per_site=2))
    conference = cut_conference(network)
    outcome = []

    def member(env):
        yield env.timeout(2.0)
        try:
            yield conference.submit("site1.host0", "stroke")
        except TransportError as error:
            outcome.append((env.now, str(error)))

    proc = env.process(member(env))
    env.run()
    assert outcome == [(pytest.approx(2.0 + 9 * 0.2),
                        "no ack from site0.host0 after 9 attempts")]
    assert conference.app.state == []
    assert conference.screens == {"site0.host1": [], "site1.host0": []}
    assert not proc.is_alive


def test_input_after_a_grant_whose_acks_were_cut_is_not_applied(env):
    """Alice's grant arrives just before her link is cut, and the cut
    outlasts the app host's attempts of that grant: it ends her turn
    and grants bob.  Her input gets through after the link is back,
    but names the ended turn, so the app drops it: only the holder's
    input is ever applied.  Her link's round trip (0.22 s) is longer
    than an ack wait, so her input's send gives up first and fails her
    submit before the app's refusal arrives."""
    conference = acks_cut(env)
    applied = []
    handle = conference.app.handle
    conference.app.handle = lambda event: applied.append(env.now) or \
        handle(event)
    outcome = {}

    def member(env, name, delay):
        yield env.timeout(delay)
        try:
            outcome[name] = yield conference.submit(name, name)
        except TransportError as error:
            outcome[name] = str(error)

    procs = [env.process(member(env, "alice", 0.0)),
             env.process(member(env, "bob", 0.2))]
    env.run()
    assert conference.app.state == ["bob"]
    assert applied == [pytest.approx(1.95, abs=1e-3)]
    assert outcome == {"alice": "no ack from app after 9 attempts",
                       "bob": "display:1 items"}
    assert [member for member, _ in conference.floor.turns] == [
        "alice", "bob"]
    assert not any(proc.is_alive for proc in procs)
    assert conference.floor.holder is None


def acks_cut(env):
    """A conference at ``app``, ``bob`` 20 ms away and ``alice`` 110 ms,
    her link cut from 0.2 s to 1.75 s.  Her first grant is on the link
    from 0.12 s and lands; the app host's last attempt of it is at
    1.71 s, her host's last of what she sends on its arrival at 1.82 s,
    which reaches the app at 1.93 s, after the grant gave up (1.91 s)."""
    topology = Topology(env)
    topology.add_link("app", "hub", latency=0.01)
    topology.add_link("bob", "hub", latency=0.01)
    topology.add_link("alice", "hub", latency=0.1)
    network = Network(env, topology)
    FaultInjector(env, network, FaultSchedule().link_down(
        0.2, "alice", "hub", up_at=1.75))
    return conference_on(network, ("alice", "bob"))


def test_a_late_release_of_an_ended_turn_leaves_the_next_turn_alone(env):
    """Alice submits twice.  Her first grant gives up and her second
    request is granted; the release of her first turn, which arrives
    after that, names the ended turn and does not end the second, so
    her second input is applied before bob's."""
    conference = acks_cut(env)
    outcome = []

    def member(env, name, delay):
        yield env.timeout(delay)
        try:
            outcome.append((name, (yield conference.submit(name, name))))
        except TransportError:
            outcome.append((name, "failed"))

    procs = [env.process(member(env, "alice", 0.0)),
             env.process(member(env, "alice", 0.0)),
             env.process(member(env, "bob", 0.2))]
    env.run()
    assert conference.app.state == ["alice", "bob"]
    assert sorted(outcome) == [("alice", "display:1 items"),
                               ("alice", "failed"),
                               ("bob", "display:2 items")]
    assert [member for member, _ in conference.floor.turns] == [
        "alice", "alice", "bob"]
    assert not any(proc.is_alive for proc in procs)


def test_input_from_a_preempted_turn_is_refused(env):
    """A round-robin quantum shorter than the trip ends alice's turn at
    the app's host before her input arrives: the app refuses it, her
    submit fails with the refusal, and bob's input is applied."""
    network = hub(env, "app", "alice", "bob", latency=0.01)
    conference = TransparentConference(
        network, SingleUserApp(), RoundRobinFloor(network, "app",
                                                  quantum=0.005))
    for member in ("alice", "bob"):
        conference.join(member)
    outcome = {}

    def member(env, name):
        try:
            outcome[name] = yield conference.submit(name, name)
        except FloorControlError as error:
            outcome[name] = str(error)

    procs = [env.process(member(env, name)) for name in ("alice", "bob")]
    env.run()
    assert conference.app.state == ["bob"]
    assert outcome == {"alice": "alice's turn 1 ended before its input "
                                "arrived",
                       "bob": "display:1 items"}
    assert conference.floor.counters["preemptions"] == 1
    assert not any(proc.is_alive for proc in procs)
    assert conference.floor.holder is None


# -- collaboration-aware sharing -----------------------------------------------------

def test_aware_object_per_member_views(env):
    network = hub(env, "editor", "observer")
    shared = AwareSharedObject(network)
    shared.join("editor", view=identical_view)
    shared.join("observer", view=summary_view)
    text = "a very long paragraph of draft text here"
    shared.update("editor", "para1", text)
    # The author sees it at once; the observer when the delta lands.
    assert shared.presented == {"editor": [(0.0, "para1", text)],
                                "observer": []}
    env.run()
    editor_view = shared.presented["editor"][-1][2]
    observer_view = shared.presented["observer"][-1][2]
    assert editor_view == "a very long paragraph of draft text here"
    assert observer_view == "a very long paragrap..."
    assert network.total_link_bytes() == 2 * (DELTA_SIZE + HEADER_BYTES)


def test_aware_object_membership_checks(env):
    shared = AwareSharedObject(users(env))
    with pytest.raises(SessionError):
        shared.update("ghost", "k", 1)
    shared.join("alice")
    with pytest.raises(SessionError):
        shared.join("alice")
