"""Mobile hosts: a network host behind a radio link (§3.3.3, §4.2.2).

A :class:`MobileHost` couples a network host to its radio attachment and
tracks connectivity history — total disconnected time, outage counts and
the longest outage, the raw material for disconnection-aware QoS
(*"quality of service requests can specify accepted levels of
disconnection"*).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import MobilityError
from repro.net.network import Host, Network
from repro.net.radio import ConnectivityLevel, RadioLink, attach_mobile
from repro.obs.metrics import Counter
from repro.sim import Environment


class MobileHost:
    """A host whose attachment to the network varies over time."""

    def __init__(self, network: Network, name: str, base: str,
                 level: ConnectivityLevel = ConnectivityLevel.FULL
                 ) -> None:
        self.network = network
        self.env = network.env
        self.name = name
        self.link: RadioLink = attach_mobile(
            network.topology, name, base, level=level)
        self.host: Host = network.host(name)
        self.counters = Counter()
        self._outage_started: Optional[float] = None
        self.total_disconnected = 0.0
        self.longest_outage = 0.0
        self._level_listeners: List[Callable[[ConnectivityLevel],
                                             None]] = []
        self.link.on_level_change(self._on_level)
        if level is ConnectivityLevel.DISCONNECTED:
            self._outage_started = self.env.now

    @property
    def level(self) -> ConnectivityLevel:
        return self.link.level

    @property
    def connected(self) -> bool:
        return self.level is not ConnectivityLevel.DISCONNECTED

    def set_level(self, level: ConnectivityLevel) -> None:
        """Change connectivity (handoff, docking, losing signal)."""
        self.link.set_level(level)

    def on_level_change(
            self, listener: Callable[[ConnectivityLevel], None]) -> None:
        """Subscribe to connectivity changes."""
        self._level_listeners.append(listener)

    def current_outage(self) -> float:
        """Seconds disconnected so far in the ongoing outage (0 if up)."""
        if self._outage_started is None:
            return 0.0
        return self.env.now - self._outage_started

    def _on_level(self, level: ConnectivityLevel) -> None:
        if level is ConnectivityLevel.DISCONNECTED:
            if self._outage_started is None:
                self._outage_started = self.env.now
                self.counters.incr("outages")
        else:
            if self._outage_started is not None:
                outage = self.env.now - self._outage_started
                self.total_disconnected += outage
                self.longest_outage = max(self.longest_outage, outage)
                self._outage_started = None
                self.counters.incr("reconnections")
        for listener in list(self._level_listeners):
            listener(level)

    def __repr__(self) -> str:
        return "<MobileHost {} [{}]>".format(self.name, self.level.value)


#: How often a disconnection-tolerant contract checks the outage, in
#: seconds.
OUTAGE_CHECK_INTERVAL = 1.0


class DisconnectionTolerantContract:
    """A QoS contract extended with an accepted level of disconnection.

    The paper: *"quality of service requests can specify accepted levels
    of disconnection and ... quality of service management can monitor
    and react to such circumstances."*
    """

    def __init__(self, env: Environment, mobile: MobileHost,
                 max_outage: float,
                 on_violation: Optional[Callable[[float], None]] = None
                 ) -> None:
        if max_outage < 0:
            raise MobilityError("max_outage must be >= 0")
        self.env = env
        self.mobile = mobile
        self.max_outage = max_outage
        self.on_violation = on_violation
        self.violations = 0
        self._violated_this_outage = False
        self.process = env.process(self._run())

    def _run(self):
        while True:
            yield self.env.timeout(OUTAGE_CHECK_INTERVAL)
            outage = self.mobile.current_outage()
            if outage > self.max_outage:
                if not self._violated_this_outage:
                    self.violations += 1
                    self._violated_this_outage = True
                    if self.on_violation is not None:
                        self.on_violation(outage)
            elif outage == 0.0:
                self._violated_this_outage = False
