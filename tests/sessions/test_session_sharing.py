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
from repro.net import Network, Topology
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def users(env):
    """A network of alice, bob and an observer on one hub."""
    topology = Topology(env)
    for user in ("alice", "bob", "observer"):
        topology.add_link(user, "hub")
    return Network(env, topology)


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
    floor = FcfsFloor(env)
    conference = TransparentConference(env, SingleUserApp(), floor,
                                       display_size=1000)
    for member in ("alice", "bob", "carol"):
        conference.join(member)

    def root(env):
        output = yield conference.submit("alice", "typed-x")
        return output

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "display:1 items"
    # Every member's screen updated; bytes = members * display size.
    assert all(len(screen) == 1
               for screen in conference.screens.values())
    assert conference.display_bytes_sent == 3000


def test_transparent_conference_serialises_input(env):
    floor = FcfsFloor(env)
    conference = TransparentConference(env, SingleUserApp(), floor)
    conference.join("alice")
    conference.join("bob")

    def member_turn(env, name, value):
        yield conference.submit(name, value)

    env.process(member_turn(env, "alice", 1))
    env.process(member_turn(env, "bob", 2))
    env.run()
    assert conference.app.state == [1, 2]  # one coherent stream


def test_transparent_conference_membership_required(env):
    conference = TransparentConference(env, SingleUserApp(),
                                       FcfsFloor(env))
    with pytest.raises(SessionError):
        conference.submit("stranger", "x")
    conference.join("alice")
    with pytest.raises(SessionError):
        conference.join("alice")


# -- collaboration-aware sharing -----------------------------------------------------

def test_aware_object_per_member_views(env):
    shared = AwareSharedObject(env)
    shared.join("editor", view=identical_view)
    shared.join("observer", view=summary_view)
    shared.update("editor", "para1",
                  "a very long paragraph of draft text here")
    editor_view = shared.presented["editor"][-1][2]
    observer_view = shared.presented["observer"][-1][2]
    assert editor_view == "a very long paragraph of draft text here"
    assert observer_view == "a very long paragrap..."


def test_aware_object_membership_checks(env):
    shared = AwareSharedObject(env)
    with pytest.raises(SessionError):
        shared.update("ghost", "k", 1)
    shared.join("alice")
    with pytest.raises(SessionError):
        shared.join("alice")
