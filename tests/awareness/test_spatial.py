"""Tests for the aura/focus/nimbus spatial model."""

import pytest

from repro.awareness import Entity, FULL, NONE, PERIPHERAL, SharedSpace
from repro.errors import ReproError


def make_space():
    space = SharedSpace()
    return space


def test_entity_validation():
    with pytest.raises(ReproError):
        Entity("x", aura=-1)
    with pytest.raises(ReproError):
        Entity("x", focus=-1)
    with pytest.raises(ReproError):
        Entity("x", nimbus=-1)


def test_distance():
    a = Entity("a", 0, 0)
    b = Entity("b", 3, 4)
    assert a.distance_to(b) == 5.0


def test_space_membership():
    space = make_space()
    space.add(Entity("a"))
    assert "a" in space
    assert len(space) == 1
    with pytest.raises(ReproError):
        space.add(Entity("a"))
    space.remove("a")
    assert "a" not in space
    with pytest.raises(ReproError):
        space.remove("a")
    with pytest.raises(ReproError):
        space.entity("ghost")


def test_full_awareness_when_mutually_in_range():
    space = make_space()
    a = space.add(Entity("a", 0, 0, aura=10, focus=5, nimbus=5))
    b = space.add(Entity("b", 3, 0, aura=10, focus=5, nimbus=5))
    assert space.awareness_level(a, b) == FULL
    assert space.awareness_level(b, a) == FULL


def test_peripheral_awareness_asymmetric():
    space = make_space()
    # a has a wide focus; b's nimbus is tiny, so a sees b only through
    # a's own focus (peripheral); b has a narrow focus and doesn't see a
    # in focus, but a's nimbus covers b => also peripheral.
    a = space.add(Entity("a", 0, 0, aura=50, focus=10, nimbus=10))
    b = space.add(Entity("b", 8, 0, aura=50, focus=2, nimbus=2))
    assert space.awareness_level(a, b) == PERIPHERAL
    assert space.awareness_level(b, a) == PERIPHERAL


def test_no_awareness_beyond_aura():
    space = make_space()
    a = space.add(Entity("a", 0, 0, aura=1, focus=100, nimbus=100))
    b = space.add(Entity("b", 50, 0, aura=1, focus=100, nimbus=100))
    assert space.awareness_level(a, b) == NONE


def test_self_awareness_is_none():
    space = make_space()
    a = space.add(Entity("a"))
    assert space.awareness_level(a, a) == NONE


def test_observers_of_scopes_audience():
    space = make_space()
    space.add(Entity("speaker", 0, 0, aura=100, focus=10, nimbus=10))
    space.add(Entity("close", 3, 0, aura=100, focus=10, nimbus=10))
    space.add(Entity("distant", 60, 0, aura=100, focus=10, nimbus=10))
    observers = space.observers_of("speaker")
    assert observers == ["close"]


def test_observers_of_full_only():
    space = make_space()
    space.add(Entity("speaker", 0, 0, aura=100, focus=10, nimbus=10))
    # peripheral observer: speaker in its focus, but it is outside the
    # speaker's nimbus.
    space.add(Entity("periph", 15, 0, aura=100, focus=20, nimbus=20))
    assert space.observers_of("speaker") == ["periph"]
    assert space.observers_of("speaker", minimum=FULL) == []
