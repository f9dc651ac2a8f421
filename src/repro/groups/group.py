"""Process groups: membership views, ordered broadcast, loopback delivery.

A :class:`ProcessGroup` names a set of member hosts and a delivery ordering
("unordered", "fifo", "causal" or "total").  Each member attaches a
:class:`GroupEndpoint`; broadcasts travel as unicasts to every other member
(the engineering could equally use the multicast service — experiment E9
compares transports; this layer is about *ordering* semantics).

Membership is coordinator-based: the first member is the coordinator; view
changes (join/leave/failure) install a new numbered view at every member.
The coordinator also acts as the sequencer for total ordering.

A member's ordering state lives in one place, its hold-back buffer: a
broadcast reaches its own sender by loopback inside ``broadcast()``, so
what a member has delivered from itself is what it has sent, and the buffer
stamps the next message from that — under causal order one vector serves
both, copied *before* the loopback advances it (see ``CausalDelivery``).
A joiner's buffer starts at the join cut (``ProcessGroup._start_at_cut``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import GroupError, MembershipError
from repro.groups.messages import GroupMessage
from repro.groups.ordering import make_ordering
from repro.net.network import Host, Network
from repro.net.packet import Packet
from repro.net.transport import ReliableChannel
from repro.sim import Store

GROUP_PORT = 20


def _raise_to(mine: Dict[str, int], theirs: Dict[str, int]) -> None:
    """Element-wise maximum of two per-sender counters, into ``mine``."""
    for sender, count in theirs.items():
        if count > mine.get(sender, 0):
            mine[sender] = count


class GroupView:
    """An immutable numbered membership snapshot."""

    __slots__ = ("view_id", "members")

    def __init__(self, view_id: int, members: Tuple[str, ...]) -> None:
        self.view_id = view_id
        self.members = tuple(sorted(members))

    @property
    def coordinator(self) -> str:
        """The distinguished member (sequencer, membership manager)."""
        if not self.members:
            raise MembershipError("empty view has no coordinator")
        return self.members[0]

    def __contains__(self, member: str) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "<View #{} {}>".format(self.view_id, list(self.members))


class GroupEndpoint:
    """One member's attachment to a process group."""

    def __init__(self, group: "ProcessGroup", host: Host) -> None:
        self.group = group
        self.host = host
        self.env = host.env
        self.name = host.name
        self._ordering = make_ordering(group.ordering, host.name)
        self._sequenced = group.ordering == "total"
        self.delivered: Store = Store(self.env)
        self.delivered_log: List[GroupMessage] = []
        self.view: Optional[GroupView] = None
        self._on_deliver: List[Callable[[GroupMessage], None]] = []
        host.on_packet(group.port, self._on_packet)
        self._reliable: Optional[ReliableChannel] = None
        if group.reliable:
            # A dedicated acknowledged channel per endpoint carries
            # group traffic over lossy links (port + 1 to keep the raw
            # datagram path distinct).
            self._reliable = ReliableChannel(
                host, port=group.port + 1,
                ack_timeout=group.ack_timeout,
                max_retries=group.max_retries)
            self.env.process(self._reliable_pump())

    # -- sending -------------------------------------------------------------

    def broadcast(self, payload: Any, size: int = 0) -> GroupMessage:
        """Send to every group member (including self, via loopback)."""
        if self.view is None or self.name not in self.view:
            raise MembershipError(
                "{} is not in the current view of {}".format(
                    self.name, self.group.name))
        message = GroupMessage(self.name, payload, size=size,
                               sent_at=self.env.now,
                               view_id=self.view.view_id)
        if self._sequenced:
            # Route through the sequencer, which stamps and re-broadcasts.
            self._send_to(self.view.coordinator, "ord-req", message)
        else:
            self._ordering.stamp(message)
            self._fanout(message)
        return message

    def on_deliver(self, callback: Callable[[GroupMessage], None]) -> None:
        """Push-style delivery subscription (in addition to the store)."""
        self._on_deliver.append(callback)

    def receive(self):
        """An event yielding the next delivered message."""
        return self.delivered.get()

    # -- internals -------------------------------------------------------------

    def _fanout(self, message: GroupMessage) -> None:
        for member in self.view.members:
            if member == self.name:
                self._receive_message(message)
            else:
                self._send_to(member, "msg", message)

    def _send_to(self, member: str, kind: str,
                 message: GroupMessage) -> None:
        if self._reliable is not None:
            self._reliable.send(member, payload=(kind, message),
                                size=message.size).defuse()
        else:
            self.host.send(member, payload=message, size=message.size,
                           port=self.group.port, headers={"type": kind})

    def _reliable_pump(self):
        while True:
            packet = yield self._reliable.receive()
            kind, message = packet.payload
            if kind == "msg":
                self._receive_message(message)
            elif kind == "ord-req":
                self.group._sequence(message)

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.headers.get("type")
        if kind == "msg":
            self._receive_message(packet.payload)
        elif kind == "ord-req":
            self.group._sequence(packet.payload)

    def _receive_message(self, message: GroupMessage) -> None:
        for deliverable in self._ordering.on_receive(message):
            self._deliver(deliverable)

    def _deliver(self, message: GroupMessage) -> None:
        self.delivered_log.append(message)
        self.delivered.put(message)
        for callback in self._on_deliver:
            callback(message)

    def __repr__(self) -> str:
        return "<GroupEndpoint {}@{}>".format(self.name, self.group.name)


class ProcessGroup:
    """A named group with ordered broadcast and managed membership."""

    def __init__(self, network: Network, name: str,
                 ordering: str = "causal",
                 port: int = GROUP_PORT,
                 reliable: bool = False,
                 ack_timeout: float = 0.2,
                 max_retries: int = 30) -> None:
        if ordering not in ("unordered", "fifo", "causal", "total"):
            raise GroupError("unknown ordering: " + ordering)
        self.network = network
        self.env = network.env
        self.name = name
        self.ordering = ordering
        self.port = port
        #: With reliable=True, group traffic travels over acknowledged
        #: channels (exactly-once, per-pair FIFO) and survives lossy
        #: links; the default raw-datagram path assumes loss-free links.
        self.reliable = reliable
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.endpoints: Dict[str, GroupEndpoint] = {}
        self.view = GroupView(0, ())
        self._global_seq = 0  # total-order slots assigned so far
        self._on_view: List[Callable[[GroupView], None]] = []

    @property
    def coordinator(self) -> Optional[str]:
        """The current coordinator, if the group is non-empty."""
        return self.view.coordinator if len(self.view) else None

    def join(self, host_name: str) -> GroupEndpoint:
        """Add a member and install the new view everywhere."""
        if host_name in self.endpoints:
            raise MembershipError(
                "{} is already a member of {}".format(host_name, self.name))
        host = self.network.host(host_name)
        endpoint = GroupEndpoint(self, host)
        self._start_at_cut(endpoint._ordering)
        self.endpoints[host_name] = endpoint
        self._install(tuple(self.view.members) + (host_name,))
        return endpoint

    def leave(self, host_name: str) -> None:
        """Remove a member and install the new view."""
        if host_name not in self.endpoints:
            raise MembershipError(
                "{} is not a member of {}".format(host_name, self.name))
        self.endpoints.pop(host_name)
        remaining = tuple(m for m in self.view.members if m != host_name)
        self._install(remaining)

    def fail_member(self, host_name: str) -> None:
        """Remove a member presumed crashed (failure-detector path)."""
        if host_name in self.endpoints:
            self.leave(host_name)

    def on_view(self, callback: Callable[[GroupView], None]) -> None:
        """Call ``callback(view)`` after each new view installs.

        Failure-detection and recovery experiments use this to timestamp
        view changes (e.g. measuring partition-to-recovery latency).
        """
        self._on_view.append(callback)

    def endpoint(self, host_name: str) -> GroupEndpoint:
        """The endpoint for ``host_name``."""
        try:
            return self.endpoints[host_name]
        except KeyError:
            raise MembershipError(
                "{} is not a member of {}".format(host_name, self.name))

    # -- internals -------------------------------------------------------------

    def _install(self, members: Tuple[str, ...]) -> None:
        self.view = GroupView(self.view.view_id + 1, members)
        # The membership manager installs the view at every member at
        # once: view installation is control traffic whose latency is
        # not under test.
        for endpoint in self.endpoints.values():
            endpoint.view = self.view
        for callback in self._on_view:
            callback(self.view)

    def _start_at_cut(self, buffer) -> None:
        """Start a joiner's hold-back ``buffer`` at the join cut.

        Nothing sent before the join was addressed to the joiner, so a
        fresh buffer — expecting number 1 from everybody — would hold
        whatever it is sent next for ever.  View installation is
        synchronous, so the cut is what has been sent up to this
        instant: the sequencer's last slot, or per sender the most any
        member has delivered.  For a member that is its own send count
        (loopback); for a sender that has left, the joiner's previous
        incarnation included, it is a lower bound that a message still
        in flight to everybody escapes.
        """
        if self.ordering == "total":
            buffer._next = self._global_seq + 1
        for member in self.endpoints.values():
            if self.ordering == "fifo":
                _raise_to(buffer._next, member._ordering._next)
            elif self.ordering == "causal":
                _raise_to(buffer._counts, member._ordering._counts)

    def _sequence(self, message: GroupMessage) -> None:
        """Sequencer role: stamp a total-order slot and re-broadcast."""
        self._global_seq += 1
        message.global_seq = self._global_seq
        sequencer = self.endpoints.get(self.view.coordinator)
        if sequencer is None:
            raise GroupError("sequencer has no endpoint")
        sequencer._fanout(message)
