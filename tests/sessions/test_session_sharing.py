"""Tests for sessions and both sharing styles."""

import pytest

from repro.errors import SessionError
from repro.sessions import (
    ASYNCHRONOUS,
    AwareSharedObject,
    CO_LOCATED,
    FcfsFloor,
    REMOTE,
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
from repro.sessions.sharing import DELTA_SIZE
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
    """A conference whose app runs at ``app``, ``members`` joined in order."""
    conference = TransparentConference(network, SingleUserApp(),
                                       FcfsFloor(network.env), "app",
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
    floor = FcfsFloor(env)
    session = Session(users(env), "s", floor=floor)
    session.join("alice")
    floor.request("alice")
    session.leave("alice")
    assert floor.holder is None


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
    # datagrams, all three through the app's link.
    assert all(len(screen) == 1
               for screen in conference.screens.values())
    [app_link] = network.topology.path("app", "hub")
    assert network.counters["sent"] == network.counters["delivered"] == 3
    assert (app_link.stats.packets, app_link.stats.bytes) == (
        3, 3 * (1000 + HEADER_BYTES))


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
    """The app's one link sends the screens one after another, so the
    third member to join is painted after two transmissions there plus
    its own screen's flight: the delay grows with the group."""
    network = hub(env, "app", "alice", "bob", "carol", latency=0.01,
                  bandwidth=8e6)
    conference = conference_on(network, ("alice", "bob", "carol"),
                               display_size=1000)
    painted = []

    def carol(env):
        yield conference.submit("carol", "stroke")
        painted.append(env.now)

    env.process(carol(env))
    env.run()
    wire = 1000 + HEADER_BYTES
    path = network.topology.path("app", "carol")
    flight = sum(link.transmission_delay(wire) + link.latency
                 for link in path)
    assert painted == [pytest.approx(2 * path[0].transmission_delay(wire)
                                     + flight)]
    assert conference.screens["carol"] == [(painted[0], "display:1 items")]


def test_a_display_update_does_not_cross_a_partition():
    """Cut two sites apart: the member in the app's site is painted, the
    one cut off is not, and its screen is the one datagram dropped."""
    env = Environment()
    topology = wan(env, sites=2, hosts_per_site=2)
    network = Network(env, topology)
    conference = TransparentConference(network, SingleUserApp(),
                                       FcfsFloor(env), "site0.host0")
    conference.join("site0.host1")
    conference.join("site1.host0")
    site0 = [node for node in topology.nodes if node.startswith("site0.")]
    site1 = [node for node in topology.nodes if node.startswith("site1.")]
    FaultInjector(env, network,
                  FaultSchedule().partition(1.0, [site0, site1]))

    def member(env):
        yield env.timeout(2.0)
        yield conference.submit("site0.host1", "stroke")

    env.process(member(env))
    env.run(until=10.0)
    assert [len(conference.screens[name])
            for name in ("site0.host1", "site1.host0")] == [1, 0]
    assert network.drop_stats() == {"no-route": 1}


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
