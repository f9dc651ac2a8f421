"""Packets: the unit of transfer in the simulated network."""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Default header overhead added to every packet, in bytes.
HEADER_BYTES = 40


class Packet:
    """A datagram travelling through the simulated network.

    ``size`` is the payload size in bytes; the wire size adds the header
    overhead.  ``port`` demultiplexes traffic at the destination host.
    """

    __slots__ = ("src", "dst", "port", "payload", "size",
                 "created_at", "delivered_at", "hops", "headers")

    def __init__(self, src: str, dst: str, payload: Any = None,
                 size: int = 0, port: int = 0,
                 created_at: float = 0.0,
                 headers: Optional[Dict[str, Any]] = None) -> None:
        if not size >= 0:  # also rejects NaN
            raise ValueError("size must be non-negative")
        self.src = src
        self.dst = dst
        self.port = port
        self.payload = payload
        self.size = size
        self.created_at = created_at
        self.delivered_at: Optional[float] = None
        self.hops = 0
        self.headers: Dict[str, Any] = headers or {}

    @property
    def wire_size(self) -> int:
        """Bytes on the wire: payload plus header overhead."""
        return self.size + HEADER_BYTES

    @property
    def latency(self) -> Optional[float]:
        """End-to-end delay, once delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    def __repr__(self) -> str:
        return "<Packet {}->{} port={} {}B>".format(
            self.src, self.dst, self.port, self.size)
