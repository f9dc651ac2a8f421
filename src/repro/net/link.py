"""Point-to-point links with latency, bandwidth, jitter and loss."""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import NetworkError
from repro.sim import Environment, PriorityResource


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
    subject to independent ``loss`` probability per packet.
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
        #: Routing cost multiplier (communications management raises it
        #: on congested links so routes steer around them).
        self.weight_multiplier = 1.0
        # Fault-injection impairments (repro.faults): a latency storm
        # multiplies propagation delay, a loss burst adds drop
        # probability.  Both compose across overlapping faults and are
        # exactly inert at (1.0, 0.0).
        self._latency_scale = 1.0
        self._extra_loss = 0.0
        self._rng = rng or random.Random(0)  # repro: allow-RPR002 (constant-seeded fallback)
        # Priority channels let QoS-reserved flows pre-empt queued
        # best-effort packets (the engineering enforcement behind §4.2.2).
        self._channels: Dict[str, PriorityResource] = {
            a: PriorityResource(env, capacity=1),
            b: PriorityResource(env, capacity=1),
        }
        self.stats = LinkStats()

    @property
    def ends(self):
        """The two endpoint node names."""
        return (self.a, self.b)

    @property
    def routing_weight(self) -> float:
        """The cost routing minimises: latency scaled by congestion."""
        return self.latency * self.weight_multiplier

    def other_end(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise NetworkError("{} is not an endpoint of {}".format(node, self))

    def channel(self, from_node: str) -> PriorityResource:
        """The transmission channel for the given direction."""
        try:
            return self._channels[from_node]
        except KeyError:
            raise NetworkError(
                "{} is not an endpoint of {}".format(from_node, self))

    # NOTE: repro.net.network's _Carrier inlines transmission_delay,
    # drops_packet and propagation_delay in its per-hop methods.  If
    # the semantics here change — especially *when* the RNG is drawn,
    # which replay digests depend on — update it to match.  The carrier
    # additionally attributes each drop: a downed link is "link-down"
    # (no draw, as here); otherwise draws below ``loss`` are "loss" and
    # draws in the ``_extra_loss`` band above it are "impairment".

    def transmission_delay(self, wire_bytes: int) -> float:
        """Seconds to clock ``wire_bytes`` onto the link."""
        return (wire_bytes * 8.0) / self.bandwidth

    def propagation_delay(self) -> float:
        """Latency (scaled by any active storm) plus a jitter draw."""
        delay = self.latency * self._latency_scale
        if self.jitter <= 0:
            return delay
        return delay + self._rng.uniform(0, self.jitter)

    def drops_packet(self) -> bool:
        """Bernoulli loss draw (also true while the link is down)."""
        if not self.up:
            return True
        probability = self.loss + self._extra_loss
        if probability <= 0:
            return False
        return self._rng.random() < min(probability, 1.0)

    def set_up(self, up: bool) -> None:
        """Administratively raise or cut the link."""
        self.up = up

    def impair(self, latency_scale: float = 1.0,
               extra_loss: float = 0.0) -> None:
        """Apply a fault impairment (composes with any already active)."""
        if latency_scale <= 0:
            raise NetworkError("latency_scale must be positive")
        if extra_loss < 0:
            raise NetworkError("extra_loss must be non-negative")
        self._latency_scale *= latency_scale
        self._extra_loss += extra_loss

    def relieve(self, latency_scale: float = 1.0,
                extra_loss: float = 0.0) -> None:
        """Reverse a previously applied :meth:`impair`."""
        if latency_scale <= 0:
            raise NetworkError("latency_scale must be positive")
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
