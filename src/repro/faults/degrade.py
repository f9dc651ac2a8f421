"""Graceful degradation: bend the collaboration instead of breaking it.

The paper's central robustness claim (§2.3) is that a cooperative
activity should survive the failure of its parts: *"reliability stems
from the system as a whole."*  This module is the policy layer that
makes our stack behave that way.  A :class:`DegradationManager` listens
to the two failure signals the platform already produces —

* SLO burn alerts from :class:`~repro.obs.slo.SLOMonitor` (the service
  *is* failing its users), and
* failure-detector suspicions from
  :class:`~repro.groups.failure.HeartbeatMonitor` (a *member* looks
  gone)

— and responds by renegotiating rather than aborting:

* QoS contracts are shed toward their negotiated minimum
  (:meth:`QoSBroker.shed <repro.qos.broker.QoSBroker.shed>`): media
  quality drops, the flow survives.
* The session falls back from synchronous interaction to
  asynchronous, notification-style sharing
  (:meth:`Session.switch_mode <repro.sessions.session.Session.switch_mode>`),
  and a suspected member's floor is reclaimed so the group is never
  deadlocked behind a silent holder.
* When the alert clears, contracts are restored toward their desired
  level and the session returns to synchronous mode.

Every transition lands in ``degrade.*`` counters and the manager's
JSON-safe :attr:`log`, so experiments can show the *shape* of
degradation, not just whether it happened.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.sessions.session import ASYNCHRONOUS, SYNCHRONOUS

#: Degradation levels.
FULL_SERVICE = "full-service"
DEGRADED = "degraded"


class DegradationManager:
    """Coordinates graceful degradation for one session and its flows.

    Parameters
    ----------
    env:
        The simulation environment (timestamps the log).
    session:
        Optional :class:`~repro.sessions.session.Session` to drop into
        asynchronous mode while degraded.
    broker:
        Optional :class:`~repro.qos.broker.QoSBroker` owning the
        contracts below.
    contracts:
        The QoS contracts to shed/restore with the degradation level; each
        degradation sheds half of a contract's current throughput.
    """

    def __init__(self, env, session=None, broker=None,
                 contracts: Sequence = ()) -> None:
        self.env = env
        self.session = session
        self.broker = broker
        self.contracts = list(contracts)
        self.level = FULL_SERVICE
        self.log: List[Dict[str, Any]] = []
        self._was_synchronous = False

    # -- signal wiring ------------------------------------------------------

    def on_alert(self, kind: str, alert) -> None:
        """An :class:`~repro.obs.slo.SLOMonitor` ``on_alert`` callback."""
        if kind == "fired":
            self.degrade("slo:" + alert.slo)
        elif kind == "cleared":
            self.recover("slo:" + alert.slo)

    def on_suspect(self, member: str) -> None:
        """A failure-detector ``on_suspect`` callback: reclaim the
        member's floor (if held) and degrade the session."""
        reclaimed = False
        if self.session is not None:
            reclaimed = self.session.handle_suspected_member(member)
        self.env.metrics.counter("degrade.suspicions", member=member).add()
        self._log("suspect", member=member, floor_reclaimed=reclaimed)
        self.degrade("suspect:" + member)

    def watch(self, contract) -> None:
        """Add a QoS contract to the managed set."""
        self.contracts.append(contract)

    # -- transitions --------------------------------------------------------

    def degrade(self, reason: str) -> bool:
        """Enter degraded mode (idempotent).  Returns True on entry."""
        if self.level == DEGRADED:
            self._log("degrade-again", reason=reason)
            return False
        self.level = DEGRADED
        shed = self._shed_contracts()
        if self.session is not None:
            self._was_synchronous = self.session.time_mode == SYNCHRONOUS
            if self._was_synchronous:
                # Fall back to notification-style, asynchronous sharing
                # — the paper's seamless-transition machinery (§3.1)
                # doubles as the degradation path.
                self.session.switch_mode(time_mode=ASYNCHRONOUS)
        self.env.metrics.counter("degrade.entered", reason=reason).add()
        self._log("degrade", reason=reason, contracts_shed=shed)
        return True

    def recover(self, reason: str) -> bool:
        """Leave degraded mode (idempotent).  Returns True on exit."""
        if self.level != DEGRADED:
            return False
        self.level = FULL_SERVICE
        restored = self._restore_contracts()
        if self.session is not None and self._was_synchronous:
            self.session.switch_mode(time_mode=SYNCHRONOUS)
        self.env.metrics.counter("degrade.recovered", reason=reason).add()
        self._log("recover", reason=reason, contracts_restored=restored)
        return True

    # -- internals ----------------------------------------------------------

    def _shed_contracts(self) -> int:
        if self.broker is None:
            return 0
        shed = 0
        for contract in self.contracts:
            before = contract.agreed.throughput
            self.broker.shed(contract)
            if contract.agreed.throughput < before:
                shed += 1
        return shed

    def _restore_contracts(self) -> int:
        if self.broker is None:
            return 0
        restored = 0
        for contract in self.contracts:
            before = contract.agreed.throughput
            self.broker.restore(contract)
            if contract.agreed.throughput > before:
                restored += 1
        return restored

    def _log(self, event: str, **fields: Any) -> None:
        entry: Dict[str, Any] = {"at": self.env.now, "event": event}
        entry.update(fields)
        self.log.append(entry)

    def __repr__(self) -> str:
        return "<DegradationManager level={} contracts={}>".format(
            self.level, len(self.contracts))
