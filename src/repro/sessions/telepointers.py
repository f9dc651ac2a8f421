"""Telepointers: shared cursors for synchronous sessions (§3.2.2).

Desktop-conferencing systems (MMConf, SharedX) showed every participant
where their colleagues were pointing — the cheapest and most effective
awareness widget in synchronous work.  A :class:`TelepointerService`
tracks each member's pointer on a shared surface and fans movements out
to the other members with a configurable update rate (real systems
throttle pointer traffic hard).

Each member has one throttling process; a published update travels as
one timeout whose callback walks the publishing member's *fan-out
list* — the other members' callbacks, flattened once after each
``watch`` / ``leave`` instead of per delivery.  A callback that raises
surfaces from ``env.run()`` as itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SessionError
from repro.sim import Counter, Environment

#: Called with (member, x, y) for each colleague's published movement.
Watcher = Callable[[str, float, float], None]


class TelepointerService:
    """Per-member pointers on one shared surface.

    A callback may ``join``, ``watch`` or ``leave`` from inside a
    delivery: a subscription made during a delivery does not receive
    the update being delivered and does receive the next (and one
    dropped by ``leave`` is dropped from the next).
    """

    def __init__(self, env: Environment, update_interval: float = 0.1,
                 latency: float = 0.02) -> None:
        for field, value in (("update_interval", update_interval),
                             ("latency", latency)):
            if not value >= 0:
                raise SessionError("{} must be non-negative: {!r}".format(
                    field, value))
        self.env = env
        self.update_interval = update_interval
        self.latency = latency
        #: member -> (x, y) as last *published* to colleagues.
        self.published: Dict[str, Tuple[float, float]] = {}
        self._current: Dict[str, Tuple[float, float]] = {}
        self._dirty: Dict[str, bool] = {}
        self._watchers: Dict[str, List[Watcher]] = {}
        #: publishing member -> the other members' callbacks in delivery
        #: order, built at the member's next delivery.  Dropped whole,
        #: never edited, so a delivery in progress keeps its list.
        self._fanout: Dict[str, List[Watcher]] = {}
        self.counters = Counter()
        #: member -> serial of its join; a publisher whose serial is no
        #: longer the member's has been left behind and exits.
        self._members: Dict[str, int] = {}
        self._joins = 0

    def join(self, member: str, on_move: Optional[Watcher] = None) -> None:
        """Add a member's pointer (optionally with a move callback)."""
        if member in self._members:
            raise SessionError("{} already joined".format(member))
        self._joins += 1
        self._members[member] = self._joins
        self._current[member] = (0.0, 0.0)
        self._dirty[member] = False
        if on_move is not None:
            self.watch(member, on_move)
        self.env.process(self._publisher(member, self._joins))

    def leave(self, member: str) -> None:
        """Remove a member: its pointer, its callbacks and any update of
        its own still in flight; its publisher exits at its next tick."""
        if member not in self._members:
            raise SessionError("{} has not joined".format(member))
        del self._members[member], self._current[member], \
            self._dirty[member]
        self._watchers.pop(member, None)
        self.published.pop(member, None)
        self._fanout = {}

    def watch(self, member: str, callback: Watcher) -> None:
        """``member`` receives colleagues' pointer movements."""
        self._watchers.setdefault(member, []).append(callback)
        self._fanout = {}

    def move(self, member: str, x: float, y: float) -> None:
        """A member moves their pointer (throttled before publishing)."""
        if member not in self._members:
            raise SessionError("{} has not joined".format(member))
        self._current[member] = (x, y)
        self._dirty[member] = True
        self.counters.incr("moves")

    def position_of(self, member: str) -> Tuple[float, float]:
        """The member's last published position."""
        if member not in self._members:
            raise SessionError("{} has not joined".format(member))
        return self.published.get(member, (0.0, 0.0))

    # -- internals -------------------------------------------------------------

    def _publisher(self, member: str, serial: int):
        """Throttle: publish at most one update per interval."""
        while self._members.get(member) == serial:
            if self._dirty[member]:
                self._dirty[member] = False
                self.counters.incr("updates_published")
                self.env.timeout(
                    self.latency, (member, serial, self._current[member])
                ).callbacks.append(self._deliver)
            # Unthrottled mode publishes on a minimal tick.
            yield self.env.timeout(self.update_interval or 1e-6)

    def _deliver(self, timer) -> None:
        member, serial, position = timer.value
        if self._members.get(member) != serial:
            return  # left while the update was in flight
        self.published[member] = position
        callbacks = self._fanout.get(member)
        if callbacks is None:
            callbacks = self._fanout[member] = [
                callback
                for viewer, watching in self._watchers.items()
                if viewer != member
                for callback in watching]
        if callbacks:
            self.counters.incr("deliveries", len(callbacks))
            x, y = position
            for callback in callbacks:
                callback(member, x, y)
