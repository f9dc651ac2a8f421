"""Heartbeat failure detection for process groups.

Each member periodically sends a heartbeat to the monitor; a member the
suspicion *strategy* gives up on is *suspected* and reported.  Wired to
:meth:`ProcessGroup.fail_member`, suspicion drives view changes — the
availability half of the paper's "reliability stems from the system as
a whole" observation (§2.3).

The suspicion decision is pluggable: the default
:class:`FixedTimeout` strategy reproduces the classic
"silent for ``suspect_after`` seconds" rule exactly, while
:class:`repro.faults.detector.PhiAccrualDetector` adapts the threshold
to the observed heartbeat arrival distribution (so latency storms do
not trigger false suspicions the way a fixed timeout does).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import GroupError
from repro.net.network import Host
from repro.net.packet import Packet

HEARTBEAT_PORT = 21


class FixedTimeout:
    """The classic suspicion rule: silent for ``suspect_after`` seconds.

    This is the default :class:`HeartbeatMonitor` strategy and preserves
    its historical behaviour bit for bit.
    """

    def __init__(self, suspect_after: float) -> None:
        if not suspect_after > 0:
            raise GroupError(
                "suspect_after must be positive: {!r}".format(suspect_after))
        self.suspect_after = suspect_after

    def watch(self, member: str, now: float) -> None:
        """A member came (back) under observation at ``now``."""

    def observe(self, member: str, now: float) -> None:
        """A heartbeat from ``member`` arrived at ``now``."""

    def suspect(self, member: str, silent_for: float, now: float) -> bool:
        """Should ``member`` (silent for ``silent_for``) be suspected?"""
        return silent_for >= self.suspect_after

    def __repr__(self) -> str:
        return "<FixedTimeout {:g}s>".format(self.suspect_after)


class HeartbeatSender:
    """Emits heartbeats from a member host to the monitor host."""

    def __init__(self, host: Host, monitor_node: str,
                 interval: float = 1.0) -> None:
        if not interval > 0:
            raise GroupError(
                "interval must be positive: {!r}".format(interval))
        self.host = host
        self.env = host.env
        self.monitor_node = monitor_node
        self.interval = interval
        self.alive = True
        self.process = self.env.process(self._run())

    def stop(self) -> None:
        """Simulate the member crashing (heartbeats cease)."""
        self.alive = False

    def restart(self) -> None:
        """Bring a stopped member back (heartbeats resume)."""
        if self.alive:
            return
        self.alive = True
        if not self.process.is_alive:
            # A sender stopped less than an interval ago is still asleep
            # in its loop, which carries on; a second loop would double
            # its heartbeats.
            self.process = self.env.process(self._run())

    def _run(self):
        while self.alive:
            self.host.send(self.monitor_node, payload=self.host.name,
                           size=16, port=HEARTBEAT_PORT,
                           headers={"type": "heartbeat"})
            yield self.env.timeout(self.interval)


class MonitoredMembership:
    """Wires heartbeat failure detection to a group's membership.

    Every member sends heartbeats to the coordinator's host; a member
    the strategy gives up on is suspected and removed from the view
    automatically (a clean ``leave`` through the group, so the view
    change installs everywhere).  There is one way back: the suspected
    member's own heartbeat reaching the monitor re-admits it
    (:meth:`_on_return`).  Simulate a crash with :meth:`crash`; a
    crashed member sends nothing, so it stays out until
    :meth:`restart` resumes its heartbeats.
    """

    def __init__(self, group, interval: float = 0.5,
                 suspect_after: float = 2.0,
                 strategy=None) -> None:
        if not interval > 0:
            raise GroupError(
                "interval must be positive: {!r}".format(interval))
        coordinator = group.coordinator
        if coordinator is None:
            raise GroupError("cannot monitor an empty group")
        self.group = group
        self.interval = interval
        monitor_host = group.endpoints[coordinator].host
        self.senders = {}
        members = [m for m in group.view.members]
        self.monitor = HeartbeatMonitor(
            monitor_host, [m for m in members if m != coordinator],
            suspect_after=suspect_after,
            check_interval=interval / 2,
            on_suspect=self._on_suspect,
            on_return=self._on_return,
            strategy=strategy)
        for member in members:
            if member == coordinator:
                continue
            self.senders[member] = HeartbeatSender(
                group.endpoints[member].host, coordinator,
                interval=interval)

    def crash(self, member: str) -> None:
        """Simulate ``member`` failing (its heartbeats stop)."""
        sender = self.senders.get(member)
        if sender is None:
            raise GroupError("{} is not monitored".format(member))
        sender.stop()

    def restart(self, member: str) -> None:
        """Bring a crashed member back (its heartbeats resume).

        If suspicion removed it from the view, its first heartbeat to
        reach the monitor re-admits it.
        """
        sender = self.senders.get(member)
        if sender is None:
            raise GroupError("{} is not monitored".format(member))
        sender.restart()

    def _on_suspect(self, member: str) -> None:
        self.group.fail_member(member)

    def _on_return(self, member: str) -> None:
        if member not in self.group.endpoints:
            self.group.join(member)


class HeartbeatMonitor:
    """Watches heartbeats and reports suspected members.

    ``strategy`` decides *when* silence becomes suspicion; the default
    :class:`FixedTimeout` uses ``suspect_after`` unchanged.  Any object
    with ``watch/observe/suspect`` methods (see :class:`FixedTimeout`
    for signatures) may be supplied instead — e.g.
    :class:`repro.faults.detector.PhiAccrualDetector`.

    A heartbeat from a suspected member clears the suspicion, watches
    the member afresh (so its silence never enters the strategy's
    history) and reports it to ``on_return``.
    """

    def __init__(self, host: Host, members: List[str],
                 suspect_after: float = 3.0,
                 check_interval: float = 0.5,
                 on_suspect: Optional[Callable[[str], None]] = None,
                 on_return: Optional[Callable[[str], None]] = None,
                 strategy=None) -> None:
        if not suspect_after > 0:
            raise GroupError(
                "suspect_after must be positive: {!r}".format(suspect_after))
        if not check_interval > 0:
            raise GroupError(
                "check_interval must be positive: {!r}".format(check_interval))
        self.host = host
        self.env = host.env
        self.suspect_after = suspect_after
        self.check_interval = check_interval
        self.on_suspect = on_suspect
        self.on_return = on_return
        self.strategy = strategy if strategy is not None \
            else FixedTimeout(suspect_after)
        self.alive = True
        self.last_heard: Dict[str, float] = {
            member: self.env.now for member in members}
        for member in members:
            self.strategy.watch(member, self.env.now)
        self.suspected: List[str] = []
        host.on_packet(HEARTBEAT_PORT, self._on_heartbeat)
        self.process = self.env.process(self._run())

    def watch(self, member: str) -> None:
        """Start (or resume) watching a member."""
        self.last_heard[member] = self.env.now
        if member in self.suspected:
            self.suspected.remove(member)
        self.strategy.watch(member, self.env.now)

    def stop(self) -> None:
        """Simulate the monitor itself crashing (checks cease)."""
        self.alive = False

    def is_suspected(self, member: str) -> bool:
        return member in self.suspected

    def _on_heartbeat(self, packet: Packet) -> None:
        if not self.alive:
            return
        member = packet.payload
        if member in self.suspected:
            self.watch(member)
            if self.on_return is not None:
                self.on_return(member)
        elif member in self.last_heard:
            self.last_heard[member] = self.env.now
            self.strategy.observe(member, self.env.now)

    def _run(self):
        while self.alive:
            yield self.env.timeout(self.check_interval)
            if not self.alive:
                return
            now = self.env.now
            for member, heard in list(self.last_heard.items()):
                silent = now - heard
                if member not in self.suspected \
                        and self.strategy.suspect(member, silent, now):
                    self.suspected.append(member)
                    if self.on_suspect is not None:
                        self.on_suspect(member)
