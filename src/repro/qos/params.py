"""Quality-of-service parameters and contracts (§4.2.2-ii).

The paper names the canonical parameters — *"throughput, end-to-end delay
(or latency) and delay variance (jitter)"* — and requires that desired
levels be expressible in the computational model.  :class:`QoSParameters`
is that expression; :class:`QoSContract` is an agreed instance with a
lifecycle (active → degraded/violated → renegotiated or torn down).
"""

from __future__ import annotations

from repro.errors import QoSError

ACTIVE = "active"
DEGRADED = "degraded"
VIOLATED = "violated"
CLOSED = "closed"


class QoSParameters:
    """A QoS expression: throughput floor, latency/jitter/loss ceilings."""

    __slots__ = ("throughput", "latency", "jitter", "loss")

    def __init__(self, throughput: float = 0.0,
                 latency: float = float("inf"),
                 jitter: float = float("inf"),
                 loss: float = 1.0) -> None:
        for field, value in (("throughput", throughput),
                             ("latency", latency), ("jitter", jitter)):
            if not value >= 0:  # also rejects NaN
                raise QoSError("{} must be non-negative: {!r}".format(
                    field, value))
        if not 0 <= loss <= 1:
            raise QoSError("loss must be within [0, 1]")
        self.throughput = throughput
        self.latency = latency
        self.jitter = jitter
        self.loss = loss

    def satisfies(self, required: "QoSParameters") -> bool:
        """Is this level at least as good as ``required`` on every axis?"""
        return (self.throughput >= required.throughput
                and self.latency <= required.latency
                and self.jitter <= required.jitter
                and self.loss <= required.loss)

    def scaled(self, factor: float) -> "QoSParameters":
        """A degraded level with throughput scaled by ``factor``."""
        if not 0 < factor <= 1:
            raise QoSError("scale factor must be in (0, 1]")
        return QoSParameters(throughput=self.throughput * factor,
                             latency=self.latency,
                             jitter=self.jitter,
                             loss=self.loss)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QoSParameters):
            return NotImplemented
        return (self.throughput, self.latency, self.jitter, self.loss) == \
            (other.throughput, other.latency, other.jitter, other.loss)

    def __repr__(self) -> str:
        return "QoS(tp={:.3g}b/s, lat={:.3g}s, jit={:.3g}s, loss={:.3g})" \
            .format(self.throughput, self.latency, self.jitter, self.loss)


class QoSContract:
    """An agreed QoS level for one flow between two nodes."""

    def __init__(self, contract_id: str, src: str, dst: str,
                 agreed: QoSParameters, desired: QoSParameters,
                 minimum: QoSParameters) -> None:
        self.contract_id = contract_id
        self.src = src
        self.dst = dst
        self.agreed = agreed
        self.desired = desired
        self.minimum = minimum
        self.state = ACTIVE
        self.renegotiations = 0

    @property
    def is_active(self) -> bool:
        return self.state in (ACTIVE, DEGRADED)

    def mark_violated(self) -> None:
        """Record a monitored violation of the agreed level."""
        if self.state != CLOSED:
            self.state = VIOLATED

    def renegotiate(self, new_agreed: QoSParameters) -> None:
        """Adopt a new agreed level (dynamic re-negotiation, §4.2.2-ii)."""
        if self.state == CLOSED:
            raise QoSError("cannot renegotiate a closed contract")
        if not new_agreed.satisfies(self.minimum):
            raise QoSError(
                "renegotiated level falls below the contract minimum")
        self.agreed = new_agreed
        self.renegotiations += 1
        self.state = DEGRADED if not new_agreed.satisfies(self.desired) \
            else ACTIVE

    def close(self) -> None:
        self.state = CLOSED

    def __repr__(self) -> str:
        return "<QoSContract {} {}->{} [{}]>".format(
            self.contract_id, self.src, self.dst, self.state)
