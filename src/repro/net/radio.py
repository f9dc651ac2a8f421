"""Radio links and connectivity levels for mobile hosts.

The paper (§4.2.2 "The impact of mobility") notes that *over a period of
time, connection may vary from being disconnected to being partially
connected (through a radio network) to being fully connected (through a
high speed network)*.  :class:`ConnectivityLevel` captures exactly those
three regimes; a :class:`RadioLink` is a link whose characteristics switch
with the level; a :class:`ConnectivitySchedule` replays a timed trace of
level changes.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.topology import Topology
from repro.sim import Environment


class ConnectivityLevel(enum.Enum):
    """The three connection regimes of a mobile host."""

    DISCONNECTED = "disconnected"
    PARTIAL = "partial"      # radio network: low bandwidth, lossy
    FULL = "full"            # docked / high-speed network


#: Link characteristics per connectivity level, the one table every radio
#: link reads:
#: (latency s, bandwidth bit/s, jitter s, loss probability)
DEFAULT_PROFILES: Dict[ConnectivityLevel, Tuple[float, float, float, float]] = {
    ConnectivityLevel.DISCONNECTED: (0.0, 1.0, 0.0, 1.0),
    ConnectivityLevel.PARTIAL: (0.15, 19200.0, 0.05, 0.05),
    ConnectivityLevel.FULL: (0.002, 1e7, 0.0, 0.0),
}


class RadioLink(Link):
    """A link whose parameters track a mobile connectivity level."""

    def __init__(self, env: Environment, mobile: str, base: str,
                 level: ConnectivityLevel = ConnectivityLevel.FULL,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(env, mobile, base, rng=rng)
        self.level = level
        self._listeners: List[Callable[[ConnectivityLevel], None]] = []
        self._apply(level)

    def set_level(self, level: ConnectivityLevel) -> None:
        """Switch connectivity regime and notify listeners."""
        if level == self.level:
            return
        self.level = level
        self._apply(level)
        for listener in list(self._listeners):
            listener(level)

    def on_level_change(
            self, listener: Callable[[ConnectivityLevel], None]) -> None:
        """Subscribe to connectivity-level changes."""
        self._listeners.append(listener)

    def _apply(self, level: ConnectivityLevel) -> None:
        latency, bandwidth, jitter, loss = DEFAULT_PROFILES[level]
        self.latency = latency
        self.bandwidth = bandwidth
        self.jitter = jitter
        self.loss = min(loss, 0.999999)
        self.up = level is not ConnectivityLevel.DISCONNECTED


class ConnectivitySchedule:
    """Replays a trace of (time, level) transitions onto a radio link."""

    def __init__(self, env: Environment, link: RadioLink,
                 trace: List[Tuple[float, ConnectivityLevel]]) -> None:
        times = [t for t, _ in trace]
        if times != sorted(times):
            raise NetworkError("connectivity trace must be time-ordered")
        self.env = env
        self.link = link
        self.trace = list(trace)
        self.process = env.process(self._run())

    def _run(self):
        for at, level in self.trace:
            delay = at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.link.set_level(level)


def periodic_trace(period_connected: float, period_disconnected: float,
                   total: float) -> List[Tuple[float, ConnectivityLevel]]:
    """A square-wave connectivity trace from t=0: partially connected
    for a while, disconnected for a while."""
    for period, field in ((period_connected, "period_connected"),
                          (period_disconnected, "period_disconnected")):
        if not period > 0:  # also rejects NaN
            raise NetworkError(field + " must be positive")
    trace: List[Tuple[float, ConnectivityLevel]] = []
    at = 0.0
    while at < total:
        trace.append((at, ConnectivityLevel.PARTIAL))
        at += period_connected
        if at >= total:
            break
        trace.append((at, ConnectivityLevel.DISCONNECTED))
        at += period_disconnected
    return trace


def attach_mobile(topology: Topology, mobile: str, base: str,
                  level: ConnectivityLevel = ConnectivityLevel.FULL,
                  rng: Optional[random.Random] = None) -> RadioLink:
    """Attach a mobile node to ``base`` with a radio link."""
    if mobile == base:
        raise NetworkError("mobile and base must differ")
    topology.add_node(mobile)
    topology.add_node(base)
    if base in topology._adjacency[mobile]:
        raise NetworkError(
            "link {}<->{} already exists".format(mobile, base))
    link = topology._join(RadioLink(topology.env, mobile, base,
                                    level=level, rng=rng))
    # Route validity depends on link.up, which changes with the level.
    link.on_level_change(lambda _level: topology.invalidate_routes())
    return link
