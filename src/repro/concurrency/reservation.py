"""Reservation-based concurrency control (§4.2.1).

The paper: *"Other real-time applications have tackled the issue of
concurrency control through the use of reservation.  Conferencing systems
often use a floor passing approach... Reservation is only suitable however
for approaches that do not want to interleave operations."*

:class:`ReservationControl` serialises *all* operations behind a single
reservation (the floor): only the holder may operate.  It is the third arm
of experiment E1 — perfect consistency, no interleaving, and response time
that includes the wait for the floor.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FloorControlError
from repro.obs.metrics import Counter
from repro.sim import Environment, Event


class ReservationControl:
    """A single floor governing access to a shared artefact."""

    def __init__(self, env: Environment, name: str = "floor") -> None:
        self.env = env
        self.name = name
        self.holder: Optional[str] = None
        self._queue: List[tuple] = []
        self.counters = Counter()

    def request(self, member: str) -> Event:
        """Ask for the reservation; fires (with the member name) on grant."""
        event = self.env.event()
        self.counters.incr("requests")
        if self.holder is None:
            self.holder = member
            self.counters.incr("grants")
            event.succeed(member)
        else:
            self._queue.append((member, event, self.env.now))
        return event

    def release(self, member: str) -> None:
        """Give up the reservation; the next waiter (FIFO) gets it."""
        if self.holder != member:
            raise FloorControlError(
                "{} does not hold {}".format(member, self.name))
        self.holder = None
        if self._queue:
            next_member, event, _ = self._queue.pop(0)
            self.holder = next_member
            self.counters.incr("grants")
            event.succeed(next_member)

    def holds(self, member: str) -> bool:
        """True if ``member`` currently holds the reservation."""
        return self.holder == member

    def check(self, member: str) -> None:
        """Raise unless ``member`` holds the reservation."""
        if not self.holds(member):
            raise FloorControlError(
                "operation by {} without the reservation".format(member))
