"""Sessions: the unit of cooperative activity (§3.2.2, §3.1).

A :class:`Session` gathers members around shared artefacts, with an
awareness bus, an optional floor policy and a space-time classification
(synchronous/asynchronous × co-located/remote).  Sessions support the
*seamless transition* the paper demands (§3.1): switching interaction mode
preserves membership, artefacts and history, which the tier-1 session and
matrix tests check.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.awareness.events import (
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_SUSPECTED,
    AwarenessBus,
)
from repro.concurrency.store import SharedStore
from repro.errors import SessionError
from repro.obs.metrics import Counter
from repro.sessions.floor import FloorPolicy
from repro.sim import Environment

SYNCHRONOUS = "synchronous"
ASYNCHRONOUS = "asynchronous"
CO_LOCATED = "co-located"
REMOTE = "remote"


class Session:
    """A cooperative session over shared artefacts."""

    def __init__(self, env: Environment, name: str,
                 time_mode: str = SYNCHRONOUS,
                 place_mode: str = REMOTE,
                 floor: Optional[FloorPolicy] = None,
                 awareness_latency: float = 0.0) -> None:
        if time_mode not in (SYNCHRONOUS, ASYNCHRONOUS):
            raise SessionError("unknown time mode: " + time_mode)
        if place_mode not in (CO_LOCATED, REMOTE):
            raise SessionError("unknown place mode: " + place_mode)
        self.env = env
        self.name = name
        self.time_mode = time_mode
        self.place_mode = place_mode
        self.floor = floor
        self.members: List[str] = []
        # Session workspaces keep a public history — accountability in
        # the collective process (§2.3).
        self.store = SharedStore(name + "-store", keep_history=True,
                                 env=env)
        self.awareness = AwarenessBus(env, latency=awareness_latency)
        self.counters = Counter()
        #: (at, from_mode, to_mode) transition history.
        self.transitions: List[Tuple[float, str, str]] = []
        self._member_state_size = 0

    @property
    def quadrant(self) -> Tuple[str, str]:
        """The session's current cell in the space-time matrix."""
        return (self.time_mode, self.place_mode)

    def join(self, member: str) -> None:
        """Add a member directly (invitation already settled)."""
        if member in self.members:
            raise SessionError(
                "{} is already in session {}".format(member, self.name))
        self.members.append(member)
        self.counters.incr("joins")
        self.awareness.publish(member, self.name, ACTION_JOIN)

    def leave(self, member: str) -> None:
        """Remove a member."""
        if member not in self.members:
            raise SessionError(
                "{} is not in session {}".format(member, self.name))
        self.members.remove(member)
        self.counters.incr("leaves")
        if self.floor is not None and self.floor.holds(member):
            self.floor.release(member)
        self.awareness.publish(member, self.name, ACTION_LEAVE)

    def handle_suspected_member(self, member: str) -> bool:
        """React to a failure detector suspecting ``member``.

        The member stays in the session (the suspicion may be wrong —
        e.g. a partition, after which they should find their seat
        intact), but a held floor is released immediately so the
        collective activity is not deadlocked behind a silent holder
        (§2.3: reliability of the whole over any individual).  Returns
        True when a floor was actually reclaimed.
        """
        if member not in self.members:
            return False
        self.counters.incr("suspected")
        self.awareness.publish(member, self.name, ACTION_SUSPECTED)
        if self.floor is not None and self.floor.holds(member):
            self.floor.release(member)
            self.counters.incr("floor_reclaims")
            return True
        return False

    def switch_mode(self, time_mode: Optional[str] = None,
                    place_mode: Optional[str] = None) -> Tuple[str, str]:
        """Seamlessly transition across the space-time matrix.

        Membership, artefacts, awareness history and floor state are all
        preserved — only the interaction mode changes.  Returns the new
        quadrant.
        """
        before = "{}/{}".format(self.time_mode, self.place_mode)
        if time_mode is not None:
            if time_mode not in (SYNCHRONOUS, ASYNCHRONOUS):
                raise SessionError("unknown time mode: " + time_mode)
            self.time_mode = time_mode
        if place_mode is not None:
            if place_mode not in (CO_LOCATED, REMOTE):
                raise SessionError("unknown place mode: " + place_mode)
            self.place_mode = place_mode
        after = "{}/{}".format(self.time_mode, self.place_mode)
        self.transitions.append((self.env.now, before, after))
        self.counters.incr("transitions")
        return self.quadrant

    def __repr__(self) -> str:
        return "<Session {} {} members={}>".format(
            self.name, self.quadrant, len(self.members))

