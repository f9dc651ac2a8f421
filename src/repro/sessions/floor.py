"""Floor control policies for conferencing (§3.2.2, experiment E12).

Collaboration-transparent conferencing requires *"an appropriate floor
control policy"* so a single-user application sees one input stream.  Five
policies with one interface:

* :class:`FreeFloor` — no control; simultaneous speakers collide (the
  collision count shows why some control is needed).
* :class:`FcfsFloor` — first-come-first-served queue.
* :class:`RoundRobinFloor` — the floor rotates on a fixed quantum among
  requesters.
* :class:`ChairedFloor` — an explicit chair serialises the requests.
* :class:`NegotiatedFloor` — the requester asks the current holder
  directly (Colab's informal negotiation); the holder yields or refuses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FloorControlError
from repro.obs.metrics import Counter, Tally
from repro.sim import Environment, Event

#: How long the chair takes to consider a request, in seconds.
CHAIR_DECISION_LATENCY = 0.5


class FloorPolicy:
    """Common state and metrics for all floor policies."""

    name = "abstract"

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.holder: Optional[str] = None
        self.counters = Counter()
        self.wait_time = Tally("floor-wait")
        self.hold_time = Tally("floor-hold")
        self.turns: List[Tuple[str, float]] = []
        self._held_since = 0.0

    def request(self, member: str) -> Event:
        """Ask for the floor; the event fires (with the member) on grant."""
        raise NotImplementedError

    def release(self, member: str) -> None:
        """Give up the floor."""
        raise NotImplementedError

    def holds(self, member: str) -> bool:
        return self.holder == member

    def _grant(self, member: str, event: Event,
               requested_at: float) -> None:
        self.holder = member
        self._held_since = self.env.now
        # Floor possession orders turns: the new holder is causally
        # after everything previous holders did with the floor.
        sanitizer = self.env.sanitizer
        if sanitizer.enabled:
            sanitizer.acquire("floor:" + self.name, member)
        self.counters.incr("grants")
        self.wait_time.record(self.env.now - requested_at)
        self.turns.append((member, self.env.now))
        event.succeed(member)

    def _end_hold(self, member: str) -> None:
        if self.holder != member:
            raise FloorControlError(
                "{} does not hold the floor".format(member))
        self.hold_time.record(self.env.now - self._held_since)
        self._hand_off(member)
        self.holder = None

    def _hand_off(self, member: str) -> None:
        """The release edge of ``member``'s turn, for the sanitizer."""
        sanitizer = self.env.sanitizer
        if sanitizer.enabled:
            sanitizer.release("floor:" + self.name, member)

    def turn_counts(self) -> Dict[str, int]:
        """How many turns each member got (the fairness metric)."""
        counts: Dict[str, int] = {}
        for member, _ in self.turns:
            counts[member] = counts.get(member, 0) + 1
        return counts


class FreeFloor(FloorPolicy):
    """No floor control: every request is granted instantly.

    Simultaneous "holders" are recorded as collisions — the garbled-input
    problem floor control exists to prevent.
    """

    name = "free"

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._active: List[str] = []

    def request(self, member: str) -> Event:
        event = self.env.event()
        self.counters.incr("requests")
        if self._active:
            self.counters.incr("collisions")
        self._active.append(member)
        self.holder = member  # last speaker "has" the floor
        self.counters.incr("grants")
        self.wait_time.record(0.0)
        self.turns.append((member, self.env.now))
        event.succeed(member)
        return event

    def release(self, member: str) -> None:
        if member not in self._active:
            raise FloorControlError(
                "{} is not speaking".format(member))
        self._active.remove(member)
        if self.holder == member:
            self.holder = self._active[-1] if self._active else None


class FcfsFloor(FloorPolicy):
    """A FIFO queue: the longest-waiting requester speaks next."""

    name = "fcfs"

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._queue: List[Tuple[str, Event, float]] = []

    def request(self, member: str) -> Event:
        event = self.env.event()
        self.counters.incr("requests")
        if self.holder is None:
            self._grant(member, event, self.env.now)
        else:
            self._queue.append((member, event, self.env.now))
        return event

    def release(self, member: str) -> None:
        self._end_hold(member)
        if self._queue:
            next_member, event, requested_at = self._queue.pop(0)
            self._grant(next_member, event, requested_at)


class RoundRobinFloor(FloorPolicy):
    """The floor rotates among waiting requesters every ``quantum``.

    A holder that does not release within the quantum is preempted in
    favour of the next requester (fair, bounded wait).
    """

    name = "round-robin"

    def __init__(self, env: Environment, quantum: float = 5.0) -> None:
        if not quantum > 0:  # also rejects NaN
            raise FloorControlError("quantum must be positive")
        super().__init__(env)
        self.quantum = quantum
        self._queue: List[Tuple[str, Event, float]] = []
        self._epoch = 0
        #: Called with the preempted member when the quantum expires.
        self.on_preempt: Optional[Callable[[str], None]] = None

    def request(self, member: str) -> Event:
        event = self.env.event()
        self.counters.incr("requests")
        if self.holder is None:
            self._grant_with_timer(member, event, self.env.now)
        else:
            self._queue.append((member, event, self.env.now))
        return event

    def release(self, member: str) -> None:
        self._end_hold(member)
        self._epoch += 1  # invalidate the running quantum timer
        self._next()

    def _grant_with_timer(self, member: str, event: Event,
                          requested_at: float) -> None:
        self._grant(member, event, requested_at)
        self._epoch += 1
        self.env.timeout(self.quantum, (member, self._epoch)
                         ).callbacks.append(self._timer)

    def _timer(self, timer: Event) -> None:
        member, epoch = timer.value
        if self._epoch != epoch or self.holder != member:
            return  # released in time, or a newer turn is running
        if not self._queue:
            return  # nobody waiting: let the holder continue
        self.counters.incr("preemptions")
        self.hold_time.record(self.env.now - self._held_since)
        self._hand_off(member)
        self.holder = None
        if self.on_preempt is not None:
            self.on_preempt(member)
        self._next()

    def _next(self) -> None:
        if self._queue:
            member, event, requested_at = self._queue.pop(0)
            self._grant_with_timer(member, event, requested_at)


class ChairedFloor(FloorPolicy):
    """An explicit chair serialises the requests.

    The chair considers each request for ``CHAIR_DECISION_LATENCY``
    (the human in the loop), then grants it when the floor is free or
    queues it behind the holder.
    """

    name = "chaired"

    def __init__(self, env: Environment, chair: str) -> None:
        super().__init__(env)
        self.chair = chair
        self._queue: List[Tuple[str, Event, float]] = []

    def request(self, member: str) -> Event:
        event = self.env.event()
        self.counters.incr("requests")
        self.env.timeout(CHAIR_DECISION_LATENCY,
                         (member, event, self.env.now)
                         ).callbacks.append(self._consider)
        return event

    def _consider(self, timer: Event) -> None:
        member, event, requested_at = timer.value
        if self.holder is None:
            self._grant(member, event, requested_at)
        else:
            self._queue.append((member, event, requested_at))

    def release(self, member: str) -> None:
        self._end_hold(member)
        if self._queue:
            next_member, event, requested_at = self._queue.pop(0)
            self._grant(next_member, event, requested_at)


class NegotiatedFloor(FloorPolicy):
    """Colab-style informal negotiation with the current holder.

    The holder's willingness to yield is a callback; negotiation takes
    ``negotiation_latency``.  A refused requester waits for the natural
    release (FIFO among the refused).
    """

    name = "negotiated"

    def __init__(self, env: Environment,
                 yields: Optional[Callable[[str, str], bool]] = None,
                 negotiation_latency: float = 1.0) -> None:
        if not negotiation_latency >= 0:  # also rejects NaN
            raise FloorControlError(
                "negotiation_latency must be non-negative")
        super().__init__(env)
        self.yields = yields or (lambda holder, requester: True)
        self.negotiation_latency = negotiation_latency
        self._queue: List[Tuple[str, Event, float]] = []

    def request(self, member: str) -> Event:
        event = self.env.event()
        self.counters.incr("requests")
        if self.holder is None:
            self._grant(member, event, self.env.now)
        else:
            self.env.timeout(self.negotiation_latency,
                             (member, event, self.env.now, self.holder)
                             ).callbacks.append(self._negotiate)
        return event

    def _negotiate(self, timer: Event) -> None:
        member, event, requested_at, holder = timer.value
        if self.holder is None:
            self._grant(member, event, requested_at)
            return
        if self.holder == holder and self.yields(holder, member):
            self.counters.incr("yields")
            self.hold_time.record(self.env.now - self._held_since)
            self._hand_off(holder)
            self.holder = None
            self._grant(member, event, requested_at)
        else:
            self.counters.incr("refusals")
            self._queue.append((member, event, requested_at))

    def release(self, member: str) -> None:
        self._end_hold(member)
        if self._queue:
            next_member, event, requested_at = self._queue.pop(0)
            self._grant(next_member, event, requested_at)


FLOOR_POLICIES = {
    "free": FreeFloor,
    "fcfs": FcfsFloor,
    "round-robin": RoundRobinFloor,
    "chaired": ChairedFloor,
    "negotiated": NegotiatedFloor,
}
