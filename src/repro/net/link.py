"""Point-to-point links with latency, bandwidth, jitter and loss."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import NetworkError
from repro.sim import Environment


def _check_impairment(latency_scale: float, extra_loss: float) -> None:
    if not latency_scale > 0:  # also rejects NaN
        raise NetworkError("latency_scale must be positive")
    if not extra_loss >= 0:
        raise NetworkError("extra_loss must be non-negative")


class Channel:
    """One direction of a link: a timeline of bookings.

    A claim (``priority``, ``tx`` its transmission delay, a ``start``
    slot) starts at ``max(now, free time)``, unless it outranks (has a
    lower priority than) a booking that has not started: it takes that
    booking's start, and that booking and all behind it are re-timed.
    So QoS-reserved packets overtake queued best-effort ones (§4.2.2),
    equal priorities keep claim order, and no transmission is pre-empted.
    """

    __slots__ = ("busy_until", "booked")

    def __init__(self) -> None:
        #: When the last booking's transmission ends.
        self.busy_until = 0.0
        #: The bookings in service order; a started one removes itself.
        self.booked: List[Any] = []

    def book(self, claim: Any, now: float) -> Sequence[Any]:
        """Give ``claim`` its start; return the bookings it re-timed."""
        booked = self.booked
        at = len(booked)
        # The bookings not started are in priority order: those ``claim``
        # outranks are at the end.
        while at and booked[at - 1].priority > claim.priority \
                and booked[at - 1].start > now:
            at -= 1
        if at == len(booked):
            claim.start = max(now, self.busy_until)
            self.busy_until = claim.start + claim.tx
            booked.append(claim)
            return ()
        start = booked[at].start
        booked.insert(at, claim)
        retimed = booked[at:]
        for booking in retimed:
            booking.start = start
            start += booking.tx
        self.busy_until = start
        return retimed[1:]


class LinkStats:
    """Per-link accounting used by the experiment harnesses."""

    __slots__ = ("packets", "bytes", "drops")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.drops = 0


class Link:
    """A bidirectional link between two nodes.

    Each direction has its own transmission channel (packets serialise on
    it at ``bandwidth`` bits/s) followed by a propagation delay of
    ``latency`` seconds, optionally perturbed by uniform ``jitter`` and
    subject to independent ``loss`` probability per packet.  The packet
    carrier (``repro.net.network._Carrier``) makes those draws: it is the
    only code that reads ``_rng``.
    """

    def __init__(self, env: Environment, a: str, b: str,
                 latency: float = 0.001, bandwidth: float = 1e8,
                 jitter: float = 0.0, loss: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        # Each compare is written so that NaN fails it.
        if not latency >= 0:
            raise NetworkError("latency must be non-negative")
        if not bandwidth > 0:
            raise NetworkError("bandwidth must be positive")
        if not 0 <= loss < 1:
            raise NetworkError("loss must be in [0, 1)")
        if not jitter >= 0:
            raise NetworkError("jitter must be non-negative")
        self.env = env
        self.a = a
        self.b = b
        #: Cached ``"a<->b"`` metric/span label (hot paths format it once).
        self.label = "{}<->{}".format(a, b)
        self.latency = latency
        self.bandwidth = bandwidth
        self.jitter = jitter
        self.loss = loss
        self.up = True
        # Fault-injection impairments (repro.faults): a latency storm
        # multiplies propagation delay, a loss burst adds drop
        # probability.  Both compose across overlapping faults and are
        # exactly inert at (1.0, 0.0).
        self._latency_scale = 1.0
        self._extra_loss = 0.0
        self._rng = rng or random.Random(0)  # repro: allow-RPR002 (constant-seeded fallback)
        self._channels: Dict[str, Channel] = {a: Channel(), b: Channel()}
        self.stats = LinkStats()

    def other_end(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise NetworkError("{} is not an endpoint of {}".format(node, self))

    def channel(self, from_node: str) -> Channel:
        """The transmission channel for the given direction."""
        try:
            return self._channels[from_node]
        except KeyError:
            raise NetworkError(
                "{} is not an endpoint of {}".format(from_node, self))

    def transmission_delay(self, wire_bytes: int) -> float:
        """Seconds to clock ``wire_bytes`` onto the link."""
        return (wire_bytes * 8.0) / self.bandwidth

    def set_up(self, up: bool) -> None:
        """Administratively raise or cut the link."""
        self.up = up

    def impair(self, latency_scale: float = 1.0,
               extra_loss: float = 0.0) -> None:
        """Apply a fault impairment (composes with any already active)."""
        _check_impairment(latency_scale, extra_loss)
        self._latency_scale *= latency_scale
        self._extra_loss += extra_loss

    def relieve(self, latency_scale: float = 1.0,
                extra_loss: float = 0.0) -> None:
        """Reverse a previously applied :meth:`impair`."""
        _check_impairment(latency_scale, extra_loss)
        self._latency_scale /= latency_scale
        if abs(self._latency_scale - 1.0) < 1e-12:
            self._latency_scale = 1.0
        self._extra_loss -= extra_loss
        if self._extra_loss < 1e-12:
            self._extra_loss = 0.0

    @property
    def impaired(self) -> bool:
        """Is any storm/burst impairment currently active?"""
        return self._latency_scale != 1.0 or self._extra_loss != 0.0

    def __repr__(self) -> str:
        return "<Link {}<->{} {:.3g}ms {:.3g}Mb/s>".format(
            self.a, self.b, self.latency * 1e3, self.bandwidth / 1e6)
