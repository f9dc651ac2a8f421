"""Explicit stream bindings (§4.2.2-i).

The draft ODP extensions the paper reports — *"extensions have been made
in terms of stream interfaces and stream bindings"* — are realised here:
a :class:`StreamBinding` is a first-class object connecting one source
host to one sink host, optionally under a QoS contract (whose reservation
buys elevated packet priority).  One-to-many media (§4.2.2-iv) goes
through :class:`~repro.net.multicast.MulticastService` (experiment E9).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import StreamError
from repro.net.network import (
    BEST_EFFORT_PRIORITY,
    Network,
    RESERVED_PRIORITY,
)
from repro.net.packet import Packet
from repro.obs.metrics import Counter
from repro.qos.monitor import QoSMonitor
from repro.qos.params import QoSContract
from repro.streams.media import Frame, MediaSink

STREAM_PORT = 40


class StreamBinding:
    """An explicit point-to-point binding for one media flow."""

    def __init__(self, network: Network, src: str, dst: str,
                 port: int = STREAM_PORT,
                 contract: Optional[QoSContract] = None,
                 monitor: Optional[QoSMonitor] = None) -> None:
        if src == dst:
            raise StreamError("source and sink must differ")
        self.network = network
        self.env = network.env
        self.src = src
        self.dst = dst
        self.port = port
        self.contract = contract
        self.monitor = monitor
        self.sink: Optional[MediaSink] = None
        self.counters = Counter()
        self._src_host = network.host(src)
        network.host(dst).on_packet(port, self._on_packet)

    @property
    def priority(self) -> int:
        """Reserved flows overtake queued best-effort traffic on each link."""
        if self.contract is not None and self.contract.is_active:
            return RESERVED_PRIORITY
        return BEST_EFFORT_PRIORITY

    def attach_sink(self, sink: MediaSink) -> None:
        """Terminate the binding at a media sink."""
        self.sink = sink

    def send_frame(self, frame: Frame) -> None:
        """Carry one frame across the network (the source's transmit)."""
        self.counters.incr("frames_sent")
        self._src_host.send(self.dst, payload=frame, size=frame.size,
                            port=self.port,
                            headers={"priority": self.priority})

    def _on_packet(self, packet: Packet) -> None:
        frame = packet.payload
        if not isinstance(frame, Frame):
            return
        self.counters.incr("frames_received")
        if self.monitor is not None:
            self.monitor.record_frame(frame.created_at, self.env.now,
                                      frame.size)
        if self.sink is not None:
            self.sink.receive(frame)

