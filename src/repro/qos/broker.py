"""QoS negotiation and admission control (§4.2.2-ii).

*"Facilities are required for negotiation of QoS levels between remote
peers"* — the :class:`QoSBroker` owns a bandwidth budget per link and
admits a flow only if every link on its path has residual capacity.
Negotiation is desired/minimum: the broker grants the best throughput
between the two that fits, or refuses.  Released and renegotiated
contracts return capacity to the budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import QoSNegotiationFailed, QoSError
from repro.net.link import Link
from repro.net.network import Network
from repro.obs.metrics import Counter
from repro.qos.params import QoSContract, QoSParameters

#: The share of each link's bandwidth that contracts may reserve; the
#: rest is left to best-effort traffic.
RESERVABLE_FRACTION = 0.8


class QoSBroker:
    """Admission control over a network's link capacities."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._admitted = 0
        #: link -> bits/s currently reserved.
        self._reserved: Dict[Link, float] = {}
        self._contract_links: Dict[str, List[Link]] = {}
        self.contracts: Dict[str, QoSContract] = {}
        self.counters = Counter()

    def residual(self, link: Link) -> float:
        """Reservable bits/s left on ``link``."""
        ceiling = link.bandwidth * RESERVABLE_FRACTION
        return ceiling - self._reserved.get(link, 0.0)

    def negotiate(self, src: str, dst: str, desired: QoSParameters,
                  minimum: Optional[QoSParameters] = None) -> QoSContract:
        """Admit a flow at the best level between desired and minimum.

        Raises :class:`QoSNegotiationFailed` when even the minimum cannot
        be carried (insufficient capacity or the path's intrinsic latency
        exceeds the bound).
        """
        minimum = minimum or desired
        if desired.throughput < minimum.throughput:
            raise QoSError("desired throughput below minimum")
        self.counters.incr("negotiations")
        path = self.network.topology.path(src, dst)
        if not path:
            raise QoSNegotiationFailed("no path {}->{}".format(src, dst))
        intrinsic_latency = sum(link.latency for link in path)
        if intrinsic_latency > minimum.latency:
            self.counters.incr("refused:latency")
            raise QoSNegotiationFailed(
                "path latency {:.4g}s exceeds bound {:.4g}s".format(
                    intrinsic_latency, minimum.latency))
        grantable = min(self.residual(link) for link in path)
        if grantable < minimum.throughput:
            self.counters.incr("refused:capacity")
            raise QoSNegotiationFailed(
                "only {:.3g}b/s available, minimum is {:.3g}b/s".format(
                    max(grantable, 0.0), minimum.throughput))
        throughput = min(desired.throughput, grantable)
        agreed = QoSParameters(throughput=throughput,
                               latency=desired.latency,
                               jitter=desired.jitter,
                               loss=desired.loss)
        for link in path:
            self._reserved[link] = \
                self._reserved.get(link, 0.0) + throughput
        self._admitted += 1
        contract = QoSContract("qos-{}".format(self._admitted), src, dst,
                               agreed, desired, minimum)
        self.contracts[contract.contract_id] = contract
        self._contract_links[contract.contract_id] = list(path)
        self.counters.incr("admitted")
        if throughput < desired.throughput:
            self.counters.incr("admitted_degraded")
        return contract

    def renegotiate(self, contract: QoSContract,
                    new_throughput: float) -> QoSContract:
        """Change a contract's throughput (up needs capacity, down frees it)."""
        if contract.contract_id not in self.contracts:
            raise QoSError("unknown contract " + contract.contract_id)
        links = self._contract_links[contract.contract_id]
        delta = new_throughput - contract.agreed.throughput
        if delta > 0:
            if any(self.residual(link) < delta for link in links):
                raise QoSNegotiationFailed(
                    "no capacity for the requested increase")
        for link in links:
            self._reserved[link] = self._reserved.get(link, 0.0) + delta
        contract.renegotiate(QoSParameters(
            throughput=new_throughput,
            latency=contract.agreed.latency,
            jitter=contract.agreed.jitter,
            loss=contract.agreed.loss))
        self.counters.incr("renegotiations")
        return contract

    def shed(self, contract: QoSContract,
             fraction: float = 0.5) -> QoSContract:
        """Gracefully degrade a contract toward its negotiated minimum.

        Drops the agreed throughput by ``fraction`` (of the current
        level), clamped at the contract's minimum — media quality falls
        rather than the flow failing.  Shedding only moves downward, so
        it never needs capacity and cannot raise
        :class:`QoSNegotiationFailed`.
        """
        if not 0 < fraction <= 1:
            raise QoSError("shed fraction must be in (0, 1]")
        target = max(contract.minimum.throughput,
                     contract.agreed.throughput * (1.0 - fraction))
        if target >= contract.agreed.throughput:
            return contract
        self.counters.incr("sheds")
        return self.renegotiate(contract, target)

    def restore(self, contract: QoSContract) -> QoSContract:
        """Raise a degraded contract back toward its desired level,
        limited by what every link on the path can currently carry."""
        links = self._contract_links.get(contract.contract_id)
        if links is None:
            raise QoSError("unknown contract " + contract.contract_id)
        headroom = min(self.residual(link) for link in links)
        target = min(contract.desired.throughput,
                     contract.agreed.throughput + max(headroom, 0.0))
        if target <= contract.agreed.throughput:
            return contract
        self.counters.incr("restores")
        return self.renegotiate(contract, target)

    def release(self, contract: QoSContract) -> None:
        """Tear down a contract and return its reservation."""
        if contract.contract_id not in self.contracts:
            raise QoSError("unknown contract " + contract.contract_id)
        for link in self._contract_links.pop(contract.contract_id):
            self._reserved[link] = max(
                0.0, self._reserved.get(link, 0.0)
                - contract.agreed.throughput)
        self.contracts.pop(contract.contract_id)
        contract.close()
        self.counters.incr("released")
