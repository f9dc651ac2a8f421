"""Point-to-point links with latency, bandwidth, jitter and loss."""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.sim import Environment, Event
from repro.sim.environment import _NORMAL_BASE


def _check_impairment(latency_scale: float, extra_loss: float) -> None:
    if not latency_scale > 0:  # also rejects NaN
        raise NetworkError("latency_scale must be positive")
    if not extra_loss >= 0:
        raise NetworkError("extra_loss must be non-negative")


class Channel(Event):
    """One direction of a link: packets clock onto it one at a time.

    A carrier that finds the channel free either books it until its
    transmission ends (:attr:`busy_until`) or holds it (:attr:`holder`)
    until its own tx-complete event releases it.  One that finds it
    taken waits in :attr:`waiting`, a heap ordered by ``(priority,
    ticket)``: lower priorities first, then claim order, so QoS-reserved
    packets overtake queued best-effort ones (a holder is never
    pre-empted).  The tickets are the channel's own, so runs sharing a
    process cannot perturb each other.

    While a booking keeps the channel, the channel itself is its
    waiters' one pending wake-up: :meth:`wait` pushes it at
    ``busy_until``, and there it grants the first waiter.  A waiter is
    anything with ``priority``, ``tx`` (its transmission delay) and a
    ``granted_at`` slot; granted, it fires ``tx`` later.
    """

    __slots__ = ("busy_until", "holder", "waiting", "_tickets")

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._ok = True
        #: When the last booking's transmission ends.
        self.busy_until = 0.0
        #: The waiter granted the channel, until it releases it.
        self.holder: Optional[Any] = None
        self.waiting: List[Tuple[int, int, Any]] = []
        self._tickets = itertools.count(1)

    def hold(self, claim: Any) -> None:
        """Grant ``claim`` the channel now; it fires at tx-complete."""
        self.holder = claim
        env = self.env
        now = claim.granted_at = env.now
        env._eid += 1
        env._push(now + claim.tx, _NORMAL_BASE + env._eid, claim)

    def wait(self, claim: Any) -> None:
        """Queue ``claim`` behind the holder, the booking or both."""
        waiting = self.waiting
        heappush(waiting, (claim.priority, next(self._tickets), claim))
        if self.holder is None and len(waiting) == 1:
            env = self.env
            self.callbacks = _WAKE
            env._eid += 1
            env._push(self.busy_until, _NORMAL_BASE + env._eid, self)

    def release(self) -> None:
        """The holder's transmission ended: grant the first waiter."""
        self.holder = None
        if self.waiting:
            self._wake()

    def _wake(self) -> None:
        self.hold(heappop(self.waiting)[2])


_WAKE = (Channel._wake,)


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
        # Priority channels let QoS-reserved flows pre-empt queued
        # best-effort packets (the engineering enforcement behind §4.2.2).
        self._channels: Dict[str, Channel] = {a: Channel(env),
                                              b: Channel(env)}
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
