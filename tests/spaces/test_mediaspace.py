"""Tests for media spaces: video walls, glances, cruises, office shares."""

import pytest

from repro.errors import ReproError
from repro.net import Network, lan
from repro.sim import Environment
from repro.spaces import (
    ACCESSIBLE,
    BUSY,
    DO_NOT_DISTURB,
    MediaSpace,
)


@pytest.fixture
def env():
    return Environment()


def make_space(env):
    network = Network(env, lan(env, hosts=4))
    space = MediaSpace(network, glance_duration=5.0)
    space.add_node("coffee-lancaster", host="host0")
    space.add_node("coffee-palo-alto", host="host1")
    space.add_node("gordon-office", host="host2")
    space.add_node("tom-office", host="host3")
    return space


def run_event(env, event):
    holder = {}

    def root(env):
        value = yield event
        holder["value"] = value

    proc = env.process(root(env))
    env.run(proc)
    return holder["value"]


def test_node_management(env):
    space = make_space(env)
    assert space.node("gordon-office").accessibility == ACCESSIBLE
    with pytest.raises(ReproError):
        space.add_node("gordon-office", host="host2")
    with pytest.raises(ReproError):
        space.node("nowhere")
    with pytest.raises(ReproError):
        space.set_accessibility("gordon-office", "invisible")
    with pytest.raises(ReproError):
        MediaSpace(space.network, glance_duration=0)


def test_video_wall_connects_common_areas(env):
    space = make_space(env)
    wall = space.video_wall("coffee-lancaster", "coffee-palo-alto")
    assert wall.live
    assert wall in space.live_connections()
    space.hang_up(wall)
    assert not wall.live
    space.hang_up(wall)  # idempotent


def test_video_wall_carries_real_frames(env):
    space = make_space(env)
    wall = space.video_wall("coffee-lancaster", "coffee-palo-alto")
    assert len(wall.flows) == 2  # bidirectional
    env.run(until=2.0)
    space.hang_up(wall)
    for source, binding, sink in wall.flows:
        assert sink.counters["played"] > 10


def test_glance_granted_when_accessible(env):
    space = make_space(env)
    connection = run_event(env, space.glance("tom-office",
                                             "gordon-office"))
    assert connection is not None
    assert not connection.live  # glances end by themselves
    assert connection.ended_at - connection.started_at == \
        pytest.approx(5.0)


def test_glance_refused_when_busy(env):
    space = make_space(env)
    space.set_accessibility("gordon-office", BUSY)
    connection = run_event(env, space.glance("tom-office",
                                             "gordon-office"))
    assert connection is None
    assert space.counters["glances_refused"] == 1


def test_glance_target_always_informed(env):
    """Reciprocity: being looked at is never invisible."""
    space = make_space(env)
    space.set_accessibility("gordon-office", DO_NOT_DISTURB)
    seen = []
    space.awareness.subscribe("gordon-office",
                              lambda event: seen.append(event.action),
                              event_filter=lambda name, event:
                              event.artefact == "gordon-office"
                              and event.actor != name, host="host2")
    run_event(env, space.glance("tom-office", "gordon-office"))
    env.run()  # the refusal is at once; the notice takes its hop
    assert "glance" in seen


def test_glance_carries_one_way_video(env):
    space = make_space(env)
    connection = run_event(env, space.glance("tom-office",
                                             "gordon-office"))
    assert len(connection.flows) == 1
    source, binding, sink = connection.flows[0]
    # ~5 s at 12.5 fps.
    assert 55 <= sink.counters["played"] <= 65


def test_cruise_glances_past_offices(env):
    space = make_space(env)
    space.set_accessibility("gordon-office", BUSY)
    connections = run_event(
        env, space.cruise("coffee-lancaster",
                          ["gordon-office", "tom-office"]))
    # gordon refused, tom granted.
    assert len(connections) == 1
    assert connections[0].target == "tom-office"
    assert space.counters["cruises"] == 1
    with pytest.raises(ReproError):
        space.cruise("coffee-lancaster", [])


def test_office_share_two_way(env):
    space = make_space(env)
    share = space.office_share("gordon-office", "tom-office")
    assert len(share.flows) == 2
    env.run(until=1.0)
    space.hang_up(share)
    assert not share.live


def test_office_share_respects_dnd(env):
    space = make_space(env)
    space.set_accessibility("tom-office", DO_NOT_DISTURB)
    with pytest.raises(ReproError):
        space.office_share("gordon-office", "tom-office")


def test_counters(env):
    space = make_space(env)
    run_event(env, space.glance("tom-office", "gordon-office"))
    assert space.counters["glances_attempted"] == 1
    assert space.counters["glances_granted"] == 1


def test_ids_and_ports_do_not_leak_between_spaces():
    """A port picks the handler a frame reaches: the same space built
    twice in one process must get the same ids and ports."""
    def raise_wall():
        env = Environment()
        space = make_space(env)
        wall = space.video_wall("coffee-lancaster", "coffee-palo-alto")
        return wall.connection_id, [binding.port
                                    for _, binding, _ in wall.flows]

    assert raise_wall() == raise_wall() == ("conn-3", [7001, 7002])
