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

A floor lives at a host, and a member sits at the host named like it.
A member's request and release go from its host to the floor's, and a
grant comes back, each a message on the hosts' reliable channels at
:data:`FLOOR_PORT`.  A policy decides at the floor's host, in arrival
order, and numbers each turn it grants.  An undelivered request or
grant fails the member's request with the channel's error (a grant
ends its turn), a release is sent until it arrives, and a reclaim is
the floor host's own act, in the call.  Whatever names a turn the host
has ended (a late release, a conference input) changes nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import FloorControlError
from repro.net import Network, Packet, ReliableChannel
from repro.net.network import Host
from repro.obs.metrics import Counter, Tally
from repro.sim import Event

#: How long the chair takes to consider a request, in seconds.
CHAIR_DECISION_LATENCY = 0.5
#: The port floor requests, grants, releases and conference input use.
FLOOR_PORT = 61


def arrive(packet: Packet) -> None:
    """A floor or sharing message carries the call its arrival makes."""
    packet.payload[0](*packet.payload[1:])


def _channel(host: Host) -> ReliableChannel:
    """``host``'s channel on :data:`FLOOR_PORT`, opened on first use."""
    channel = host.channels.get(FLOOR_PORT)
    if channel is None:
        channel = ReliableChannel(host, FLOOR_PORT)
        channel.on_receive(arrive)
    return channel


def send_call(network: Network, src: str, dst: str, call: Tuple[Any, ...],
              size: int = 0,
              failed: Optional[Callable[[BaseException], None]] = None
              ) -> None:
    """Send ``call`` reliably from host ``src`` to host ``dst``, where
    its arrival runs ``call[0](*call[1:])``; a send that gives up calls
    ``failed`` with its error (or is dropped without one).  A member
    opens its channel with its first send, before any reply to it."""
    sent = _channel(network.host(src)).send(dst, call, size)

    def settle(done: Event) -> None:
        if not done._ok:
            done.defused = True
            if failed is not None:
                failed(done._exception)

    sent.callbacks.append(settle)


def refuse(event: Event) -> Callable[[BaseException], None]:
    """A ``failed`` for :func:`send_call`: fail a member's ``event``
    with the send's error, unless it has fired already."""
    def fail(error: BaseException) -> None:
        if not event.triggered:
            event.reject(error)
    return fail


class FloorPolicy:
    """Common state and metrics for all floor policies: a floor at
    ``host`` on ``network``."""

    name = "abstract"

    def __init__(self, network: Network, host: str) -> None:
        self.env = network.env
        self.network = network
        self.host = network.host(host)
        _channel(self.host)
        self.holder: Optional[str] = None
        self.counters = Counter()
        self.wait_time = Tally("floor-wait")
        self.hold_time = Tally("floor-hold")
        self.turns: List[Tuple[str, float]] = []
        self._held_since = 0.0
        #: The number of the last turn granted, at the floor's host.
        self._turn = 0
        #: Requests waiting at the floor's host: (member, event, asked at).
        self._queue: List[Tuple[str, Event, float]] = []
        #: Member -> the turn whose grant has arrived at its host and
        #: which it has not released.
        self._holding: Dict[str, int] = {}

    def request(self, member: str) -> Event:
        """Ask for the floor from ``member``'s host; the event fires
        (with the turn's number) when the grant arrives there, or fails
        with the error of a request or grant that could not be
        delivered."""
        event = self.env.event()
        self.counters.incr("requests")
        send_call(self.network, member, self.host.name,
                  (self._requested, member, event, self.env.now),
                  failed=refuse(event))
        return event

    def release(self, member: str) -> None:
        """Give up the floor: a message to the floor's host."""
        turn = self._holding.pop(member, None)
        if turn is None:
            raise FloorControlError(
                "{} does not hold the floor".format(member))
        self._send_release(member, turn)

    def _send_release(self, member: str, turn: int) -> None:
        """A release is sent again until the floor's host has it: until
        then the floor stays held (unless the host reclaims it)."""
        self.counters.incr("releases")
        send_call(self.network, member, self.host.name,
                  (self._released, member, turn),
                  failed=lambda error: self._send_release(member, turn))

    def holds(self, member: str) -> bool:
        """True while the floor's host counts ``member`` as holder."""
        return self.holder == member

    def current(self, member: str, turn: int) -> bool:
        """True while ``turn`` is ``member``'s and the floor's host has
        not ended it."""
        return self.holder == member and self._turn == turn

    def reclaim(self, member: str) -> None:
        """End ``member``'s turn at the floor's host, in the call, and
        grant the next: on its release's arrival, or as the host's own
        act (a member who left or is suspected).  A member no longer
        holding (preempted, or reclaimed already) changes nothing."""
        if self.holder == member:
            self._end_hold(member)
            self._next()

    # -- at the floor's host ------------------------------------------------

    def _released(self, member: str, turn: int) -> None:
        """End ``turn`` unless it has ended already."""
        if self.current(member, turn):
            self.reclaim(member)

    def _requested(self, member: str, event: Event,
                   requested_at: float) -> None:
        """A request has arrived: the policy's decision (here FIFO)."""
        if self.holder is None:
            self._grant(member, event, requested_at)
        else:
            self._queue.append((member, event, requested_at))

    def _next(self) -> None:
        if self._queue:
            self._grant(*self._queue.pop(0))

    def _grant(self, member: str, event: Event,
               requested_at: float) -> None:
        self.holder = member
        self._held_since = self.env.now
        # Floor possession orders turns: the new holder is causally
        # after everything previous holders did with the floor.
        sanitizer = self.env.sanitizer
        if sanitizer.enabled:
            sanitizer.acquire("floor:" + self.name, member)
        self._send_grant(member, event, requested_at)

    def _send_grant(self, member: str, event: Event,
                    requested_at: float) -> None:
        self.counters.incr("grants")
        self.turns.append((member, self.env.now))
        self._turn += 1
        turn = self._turn
        send_call(self.network, self.host.name, member,
                  (self._granted, member, event, requested_at, turn),
                  failed=lambda error: self._undelivered(member, turn,
                                                         event, error))

    def _undelivered(self, member: str, turn: int, event: Event,
                     error: BaseException) -> None:
        """A grant that could not be delivered ends its turn and hands
        the floor on.  It may have arrived with only its acks lost: the
        member's input and release then name the ended turn."""
        refuse(event)(error)
        self._released(member, turn)

    def _end_hold(self, member: str) -> None:
        self.hold_time.record(self.env.now - self._held_since)
        # The release edge of the turn, for the sanitizer.
        sanitizer = self.env.sanitizer
        if sanitizer.enabled:
            sanitizer.release("floor:" + self.name, member)
        self.holder = None

    # -- at the member's host -----------------------------------------------

    def _granted(self, member: str, event: Event, requested_at: float,
                 turn: int) -> None:
        if event.triggered:  # the member stopped waiting: hand it back
            self._send_release(member, turn)
            return
        self._holding[member] = turn
        self.wait_time.record(self.env.now - requested_at)
        event.resolve(turn)

    def turn_counts(self) -> Dict[str, int]:
        """How many turns each member got (the fairness metric)."""
        counts: Dict[str, int] = {}
        for member, _ in self.turns:
            counts[member] = counts.get(member, 0) + 1
        return counts


class FreeFloor(FloorPolicy):
    """No floor control: every request is granted on arrival.

    Simultaneous "holders" are recorded as collisions — the garbled-input
    problem floor control exists to prevent.
    """

    name = "free"

    def __init__(self, network: Network, host: str) -> None:
        super().__init__(network, host)
        self._active: List[str] = []

    def _requested(self, member: str, event: Event,
                   requested_at: float) -> None:
        if self._active:
            self.counters.incr("collisions")
        self._active.append(member)
        self.holder = member  # last speaker "has" the floor
        self._send_grant(member, event, requested_at)

    def current(self, member: str, turn: int) -> bool:
        return member in self._active  # no turn excludes another

    def reclaim(self, member: str) -> None:
        if member in self._active:
            self._active.remove(member)
        if self.holder == member:
            self.holder = self._active[-1] if self._active else None


class FcfsFloor(FloorPolicy):
    """A FIFO queue: the longest-waiting requester speaks next."""

    name = "fcfs"


class RoundRobinFloor(FloorPolicy):
    """The floor rotates among waiting requesters every ``quantum``.

    A holder that does not release within the quantum is preempted in
    favour of the next requester (fair, bounded wait).
    """

    name = "round-robin"

    def __init__(self, network: Network, host: str,
                 quantum: float = 5.0) -> None:
        if not quantum > 0:  # also rejects NaN
            raise FloorControlError("quantum must be positive")
        super().__init__(network, host)
        self.quantum = quantum
        #: Called with the preempted member when the quantum expires.
        self.on_preempt: Optional[Callable[[str], None]] = None

    def _grant(self, member: str, event: Event,
               requested_at: float) -> None:
        super()._grant(member, event, requested_at)
        self.env.timeout(self.quantum, (member, self._turn)
                         ).callbacks.append(self._timer)

    def _timer(self, timer: Event) -> None:
        member, turn = timer.value
        if self._turn != turn or self.holder != member:
            return  # released, or a newer turn is running
        if not self._queue:
            return  # nobody waiting: let the holder continue
        self.counters.incr("preemptions")
        self._end_hold(member)
        if self.on_preempt is not None:
            self.on_preempt(member)
        self._next()


class ChairedFloor(FloorPolicy):
    """An explicit chair serialises the requests; the floor lives at the
    chair's host.

    The chair considers each request for ``CHAIR_DECISION_LATENCY``
    (the human in the loop), then grants it when the floor is free or
    queues it behind the holder.
    """

    name = "chaired"

    def _requested(self, member: str, event: Event,
                   requested_at: float) -> None:
        self.env.timeout(CHAIR_DECISION_LATENCY,
                         (member, event, requested_at)
                         ).callbacks.append(self._consider)

    def _consider(self, timer: Event) -> None:
        super()._requested(*timer.value)


class NegotiatedFloor(FloorPolicy):
    """Colab-style informal negotiation with the current holder.

    The holder's willingness to yield is a callback; negotiation takes
    ``negotiation_latency``.  A refused requester waits for the natural
    release (FIFO among the refused).
    """

    name = "negotiated"

    def __init__(self, network: Network, host: str,
                 yields: Optional[Callable[[str, str], bool]] = None,
                 negotiation_latency: float = 1.0) -> None:
        if not negotiation_latency >= 0:  # also rejects NaN
            raise FloorControlError(
                "negotiation_latency must be non-negative")
        super().__init__(network, host)
        self.yields = yields or (lambda holder, requester: True)
        self.negotiation_latency = negotiation_latency

    def _requested(self, member: str, event: Event,
                   requested_at: float) -> None:
        if self.holder is None:
            self._grant(member, event, requested_at)
        else:
            self.env.timeout(self.negotiation_latency,
                             (member, event, requested_at, self.holder)
                             ).callbacks.append(self._negotiate)

    def _negotiate(self, timer: Event) -> None:
        member, event, requested_at, holder = timer.value
        if self.holder is None:
            self._grant(member, event, requested_at)
            return
        if self.holder == holder and self.yields(holder, member):
            self.counters.incr("yields")
            self._end_hold(holder)
            self._grant(member, event, requested_at)
        else:
            self.counters.incr("refusals")
            self._queue.append((member, event, requested_at))


FLOOR_POLICIES = {
    "free": FreeFloor,
    "fcfs": FcfsFloor,
    "round-robin": RoundRobinFloor,
    "chaired": ChairedFloor,
    "negotiated": NegotiatedFloor,
}
