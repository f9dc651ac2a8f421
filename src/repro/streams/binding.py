"""Stream interfaces and explicit bindings (§4.2.2-i, §4.2.2-iv).

The draft ODP extensions the paper reports — *"extensions have been made
in terms of stream interfaces and stream bindings"* — are realised here:
a :class:`StreamBinding` is a first-class object connecting one source
host to one sink host, optionally under a QoS contract (whose reservation
buys elevated packet priority); a :class:`GroupStreamBinding` connects a
source to a multicast group, "if a video source is to be displayed in a
number of distinct video windows simultaneously".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import StreamError
from repro.net.multicast import MulticastService
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
        """Reserved flows pre-empt best-effort traffic on each link."""
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


class GroupStreamBinding:
    """One source bound to every member of a multicast group."""

    def __init__(self, network: Network, multicast: MulticastService,
                 group_name: str, src: str,
                 port: int = STREAM_PORT + 1) -> None:
        self.network = network
        self.env = network.env
        self.multicast = multicast
        self.group_name = group_name
        self.src = src
        self.port = port
        self.sinks: Dict[str, MediaSink] = {}
        self.counters = Counter()

    def attach_sink(self, member: str, sink: MediaSink) -> None:
        """Terminate the group binding at ``member``'s sink."""
        group = self.multicast.groups.get(self.group_name)
        if group is None or member not in group:
            raise StreamError(
                "{} is not in group {}".format(member, self.group_name))
        self.sinks[member] = sink
        self.network.host(member).on_packet(self.port, self._make_handler(
            member))

    def send_frame(self, frame: Frame) -> None:
        """Multicast one frame to the whole group."""
        self.counters.incr("frames_sent")
        self.multicast.send(self.group_name, self.src, payload=frame,
                            size=frame.size, port=self.port)

    def _make_handler(self, member: str):
        def handler(packet: Packet) -> None:
            frame = packet.payload
            if isinstance(frame, Frame) and member in self.sinks:
                self.counters.incr("frames_received")
                self.sinks[member].receive(frame)
        return handler
