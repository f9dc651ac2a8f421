"""Johansen's groupware space-time matrix (Figure 1, §3.1).

The four quadrants, classification of applications into them, and the
transition support the paper says matters more than the matrix itself:
*"In practice, work often switches rapidly between asynchronous and
synchronous interactions.  CSCW researchers now highlight the need to
support these transitions in as seamless a manner as possible."*
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.sessions.session import (
    ASYNCHRONOUS,
    CO_LOCATED,
    REMOTE,
    SYNCHRONOUS,
    Session,
)

#: Figure 1's cells, keyed by (time, place).
QUADRANTS: Dict[Tuple[str, str], str] = {
    (SYNCHRONOUS, CO_LOCATED): "face-to-face interaction",
    (ASYNCHRONOUS, CO_LOCATED): "asynchronous interaction",
    (SYNCHRONOUS, REMOTE): "synchronous distributed interaction",
    (ASYNCHRONOUS, REMOTE): "asynchronous distributed interaction",
}

#: Representative application classes per quadrant (§3.2).
EXAMPLE_APPLICATIONS: Dict[Tuple[str, str], List[str]] = {
    (SYNCHRONOUS, CO_LOCATED): ["meeting-room tools", "Colab"],
    (ASYNCHRONOUS, CO_LOCATED): ["shared filing", "office procedures"],
    (SYNCHRONOUS, REMOTE): ["desktop conferencing", "GROVE", "media spaces"],
    (ASYNCHRONOUS, REMOTE): ["co-authoring", "Quilt", "workflow",
                             "Portholes"],
}


def quadrant_name(time_mode: str, place_mode: str) -> str:
    """The Figure-1 label for a (time, place) combination."""
    try:
        return QUADRANTS[(time_mode, place_mode)]
    except KeyError:
        raise ReproError("not a space-time quadrant: {}/{}".format(
            time_mode, place_mode))


def classify(session: Session) -> str:
    """Which Figure-1 cell a session currently occupies."""
    return quadrant_name(*session.quadrant)


def render_matrix() -> str:
    """Figure 1 as a plain-text table: places by row, times by column."""
    col = max(len(QUADRANTS[(t, REMOTE)]) for t in
              (SYNCHRONOUS, ASYNCHRONOUS))
    header = "{:<18} | {:<{w}} | {}".format(
        "", "Same Time", "Different Time", w=col)
    rows = [header, "-" * len(header)]
    for place, label in ((CO_LOCATED, "Same Place"),
                         (REMOTE, "Different Places")):
        rows.append("{:<18} | {:<{w}} | {}".format(
            label, QUADRANTS[(SYNCHRONOUS, place)],
            QUADRANTS[(ASYNCHRONOUS, place)], w=col))
    return "\n".join(rows)


def transition_path(session: Session, target_time: str,
                    target_place: str) -> Tuple[str, str]:
    """Move a session to a target quadrant, returning (from, to) labels.

    The session's artefacts, members and history survive — the
    seamlessness requirement of §3.1, which the tier-1 tests
    ``test_transition_path_preserves_state`` and
    ``test_session_quadrant_and_transition`` check.
    """
    before = classify(session)
    session.switch_mode(time_mode=target_time, place_mode=target_place)
    return (before, classify(session))
