"""Tests for the space-time matrix."""

import pytest

from repro.core import (
    EXAMPLE_APPLICATIONS,
    QUADRANTS,
    classify,
    quadrant_name,
    render_matrix,
    transition_path,
)
from repro.errors import ReproError
from repro.sessions import (
    ASYNCHRONOUS,
    CO_LOCATED,
    REMOTE,
    SYNCHRONOUS,
    Session,
)
from repro.sim import Environment


def test_quadrants_cover_figure_1():
    assert QUADRANTS[(SYNCHRONOUS, CO_LOCATED)] == \
        "face-to-face interaction"
    assert QUADRANTS[(ASYNCHRONOUS, REMOTE)] == \
        "asynchronous distributed interaction"
    assert len(QUADRANTS) == 4
    assert set(EXAMPLE_APPLICATIONS) == set(QUADRANTS)


def test_quadrant_name_validation():
    with pytest.raises(ReproError):
        quadrant_name("sometimes", "somewhere")


def test_classify_session():
    env = Environment()
    session = Session(env, "s", time_mode=SYNCHRONOUS, place_mode=REMOTE)
    assert classify(session) == "synchronous distributed interaction"


def test_render_matrix_contains_all_cells():
    text = render_matrix()
    for label in QUADRANTS.values():
        assert label in text
    assert "Same Time" in text
    assert "Different Places" in text


def test_transition_path_preserves_state():
    env = Environment()
    session = Session(env, "s", time_mode=SYNCHRONOUS, place_mode=REMOTE)
    session.join("alice")
    session.store.write("doc", "content", writer="alice")
    before, after = transition_path(session, ASYNCHRONOUS, REMOTE)
    assert before == "synchronous distributed interaction"
    assert after == "asynchronous distributed interaction"
    assert session.members == ["alice"]
    assert session.store.read("doc") == "content"
