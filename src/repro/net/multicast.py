"""Multicast: spanning-tree group delivery of datagrams.

The paper (§4.2.2-iv) requires *multicast transport protocols ... to enable
group communication of continuous media*.  This module implements source-
rooted shortest-path-tree multicast: a packet traverses each tree link once,
in contrast to repeated unicast which re-sends it along every member's whole
path.  Experiment E9 compares the two.  Each tree edge is a flight of
the network's carrier, booked as a unicast hop is.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import GroupError, RoutingError
from repro.net.network import Network, _Carrier
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
             size: int = 0, port: Optional[int] = None) -> List[Packet]:
        """Multicast to every other member; returns the per-member packets.

        Every flight the frame launches — a tree edge, or a member no
        route reaches — is one datagram in the source host's ``sent``
        book.
        """
        group = self.groups.get(group_name)
        if group is None:
            raise GroupError("no multicast group {}".format(group_name))
        dst_port = self.port if port is None else port
        # The sender never routes to itself through the tree.  Members
        # go out in name order, not the set's hash order.
        targets = sorted(member for member in group.members if member != src)
        tree = self._build_tree(src, targets)
        reached = {child for children in tree.values() for child in children}
        # One packet per member and per relay the tree reaches: a
        # member's is the one it receives, a relay's only flies its edge.
        copies = {node: Packet(src, node, payload=payload, size=size,
                               port=dst_port, created_at=self.env.now)
                  for node in sorted(reached.union(targets))}
        packets = [copies[member] for member in targets]
        source = self.network.host(src)
        frame = (tree, copies, set(targets), source)
        for child in tree.get(src, ()):
            _TreeEdge(self.network, frame, src, child)._launch()
        for member in targets:
            if member not in reached:
                # Unreachable: its flight finds no route and books that.
                source.sent += 1
                _Carrier(self.network, copies[member])._launch()
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
            try:
                links = self.network.topology.path(src, member)
            except RoutingError:
                continue  # unreachable: send() books its no-route drop
            node = src
            for link in links:
                nxt = link.other_end(node)
                branch = children.setdefault(node, [])
                if nxt not in branch:
                    branch.append(nxt)
                node = nxt
        return children


class _TreeEdge(_Carrier):
    """One edge of a multicast tree: a carrier flight over one link.

    Only its route (the tree link from ``node`` to ``child``) and its
    end (:meth:`_deliver`) differ from a unicast flight.  ``frame`` is
    the tree (node -> children), the packet per node it reaches, the
    members among those nodes and the source host, whose ``sent`` book
    counts the edge as it takes off.
    """

    __slots__ = ("frame",)

    def __init__(self, network: Network, frame: Tuple[Any, ...],
                 node: str, child: str) -> None:
        super().__init__(network, frame[1][child], iter(
            (network.topology.link_between(node, child),)))
        self.frame = frame
        self.node = node
        frame[3].sent += 1

    def _deliver(self) -> None:
        """Past the link: deliver to a member, then fork the subtree."""
        packet = self.packet
        child = packet.dst
        tree, copies, members, _ = self.frame
        if child in members:
            super()._deliver()
        else:
            self.transit.finish(at=self.env.now)
        for grandchild in tree.get(child, ()):
            copies[grandchild].hops = packet.hops
            _TreeEdge(self.network, self.frame, child, grandchild)._begin()
