"""Multicast: spanning-tree group delivery of datagrams.

The paper (§4.2.2-iv) requires *multicast transport protocols ... to enable
group communication of continuous media*.  This module implements source-
rooted shortest-path-tree multicast: a packet traverses each tree link once,
in contrast to repeated unicast which re-sends it along every member's whole
path.  Experiment E9 compares the two.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import GroupError, NetworkError, RoutingError
from repro.net.network import Network
from repro.net.packet import Packet


class MulticastGroup:
    """A named set of member hosts."""

    def __init__(self, service: "MulticastService", name: str) -> None:
        self.service = service
        self.name = name
        self.members: Set[str] = set()

    def join(self, host_name: str) -> None:
        """Add a host (must exist in the network) to the group."""
        if host_name not in self.service.network.hosts:
            raise GroupError(
                "host {} is not attached to the network".format(host_name))
        self.members.add(host_name)

    def leave(self, host_name: str) -> None:
        """Remove a host from the group."""
        self.members.discard(host_name)

    def __contains__(self, host_name: str) -> bool:
        return host_name in self.members

    def __len__(self) -> int:
        return len(self.members)


class MulticastService:
    """Source-rooted tree multicast over a network."""

    def __init__(self, network: Network, port: int = 3) -> None:
        self.network = network
        self.env = network.env
        self.port = port
        self.groups: Dict[str, MulticastGroup] = {}

    def create_group(self, name: str) -> MulticastGroup:
        """Create (or fetch) the group called ``name``."""
        if name not in self.groups:
            self.groups[name] = MulticastGroup(self, name)
        return self.groups[name]

    def send(self, group_name: str, src: str, payload: Any = None,
             size: int = 0, loopback: bool = False,
             port: Optional[int] = None) -> List[Packet]:
        """Multicast to every member; returns the per-member packets.

        With ``loopback`` the sender (if a member) also receives a copy,
        delivered immediately.
        """
        group = self.groups.get(group_name)
        if group is None:
            raise GroupError("no multicast group {}".format(group_name))
        dst_port = self.port if port is None else port
        # The sender never routes to itself through the tree; with
        # loopback its copy is delivered directly below.  Members go out
        # in name order, not the set's hash order.
        targets = sorted(member for member in group.members if member != src)
        packets: List[Packet] = []
        tree = self._build_tree(src, targets)
        packet_for: Dict[str, Packet] = {}
        for member in targets:
            packet = Packet(src, member, payload=payload, size=size,
                            port=dst_port, created_at=self.env.now)
            packet_for[member] = packet
            packets.append(packet)
        if loopback and src in group.members:
            self_packet = Packet(src, src, payload=payload, size=size,
                                 port=dst_port, created_at=self.env.now)
            packets.append(self_packet)
            host = self.network.hosts.get(src)
            if host is not None:
                host._deliver(self_packet)
        if targets:
            self.env.process(
                self._walk(src, tree, packet_for, payload, size, dst_port))
        return packets

    def unicast_fanout(self, group_name: str, src: str, payload: Any = None,
                       size: int = 0, port: Optional[int] = None
                       ) -> List[Packet]:
        """Baseline: send one independent unicast to each member."""
        group = self.groups.get(group_name)
        if group is None:
            raise GroupError("no multicast group {}".format(group_name))
        dst_port = self.port if port is None else port
        host = self.network.host(src)
        return [host.send(member, payload=payload, size=size, port=dst_port)
                for member in sorted(group.members) if member != src]

    # -- internals ---------------------------------------------------------

    def _build_tree(self, src: str,
                    targets: List[str]) -> Dict[str, List[str]]:
        """Union of shortest paths from src, as a node->children map."""
        children: Dict[str, List[str]] = {}
        for member in targets:
            if member == src:
                continue
            try:
                links = self.network.topology.path(src, member)
            except RoutingError:
                continue  # unreachable member: dropped, like a lost packet
            node = src
            for link in links:
                nxt = link.other_end(node)
                branch = children.setdefault(node, [])
                if nxt not in branch:
                    branch.append(nxt)
                node = nxt
        return children

    def _walk(self, node: str, tree: Dict[str, List[str]],
              packet_for: Dict[str, Packet], payload: Any, size: int,
              port: int):
        """Forward along each outgoing tree edge concurrently."""
        for child in tree.get(node, []):
            self.env.process(self._edge(
                node, child, tree, packet_for, payload, size, port))
        return
        yield  # pragma: no cover - makes this a generator

    def _edge(self, node: str, child: str, tree: Dict[str, List[str]],
              packet_for: Dict[str, Packet], payload: Any, size: int,
              port: int):
        link = self.network.topology.link_between(node, child)
        wire = size + 40
        channel = link.channel(node)
        with channel.request() as claim:
            yield claim
            yield self.env.timeout(link.transmission_delay(wire))
        if link.drops_packet():
            link.stats.drops += 1
            return  # the whole subtree misses this packet
        yield self.env.timeout(link.propagation_delay())
        link.stats.packets += 1
        link.stats.bytes += wire
        packet = packet_for.get(child)
        if packet is not None:
            packet.hops += 1
            host = self.network.hosts.get(child)
            if host is not None:
                host._deliver(packet)
        yield from self._walk(child, tree, packet_for, payload, size, port)
