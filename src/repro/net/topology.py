"""Network topologies and shortest-path routing tables.

A :class:`Topology` is an undirected graph of named nodes joined by
:class:`~repro.net.link.Link` objects.  Builders create the standard shapes
used by the experiments: a single LAN, a WAN of sites, stars and dumbbells.
Routing is static shortest-path by latency (Dijkstra), recomputed on demand.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError, RoutingError
from repro.net.link import Link
from repro.sim import Environment, RandomStreams

#: Route-cache miss sentinel (``None`` is a cached "no route" verdict).
_MISS: object = object()


class Topology:
    """An undirected graph of nodes and links."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.nodes: List[str] = []
        self._adjacency: Dict[str, Dict[str, Link]] = {}
        self._paths: Dict[str, Dict[str, Optional[str]]] = {}
        self._dirty = True
        # Materialised (src, dst) -> [Link, ...] routes; ``None`` records a
        # known-unreachable pair so partitioned storms don't re-walk.  Both
        # caches die with the first-hop tables on invalidate_routes().
        self._route_cache: Dict[Tuple[str, str], Optional[List[Link]]] = {}
        self._links_cache: Optional[List[Link]] = None
        # Route tables memoised per link-state epoch (every link's
        # up/weight, in links() order).  Fault schedules mostly *revisit*
        # states — a flap toggles between two, a partition heals back to
        # the original — so recomputation after an invalidation is a
        # dict hit instead of |nodes| Dijkstra walks.  Dies on any graph
        # shape change (add_node/add_link).
        self._state_cache: Dict[tuple, tuple] = {}

    def add_node(self, name: str) -> str:
        """Add a node (idempotent) and return its name."""
        if name not in self._adjacency:
            self.nodes.append(name)
            self._adjacency[name] = {}
            self._dirty = True
            self._state_cache = {}
        return name

    def add_link(self, a: str, b: str, **link_kwargs) -> Link:
        """Join ``a`` and ``b`` with a new link (creating nodes as needed)."""
        if a == b:
            raise NetworkError("self-links are not allowed")
        self.add_node(a)
        self.add_node(b)
        if b in self._adjacency[a]:
            raise NetworkError("link {}<->{} already exists".format(a, b))
        return self._join(Link(self.env, a, b, **link_kwargs))

    def _join(self, link: Link) -> Link:
        """Put a new link between its ends, which are nodes with no link
        between them yet, and drop every cache the graph's shape
        feeds."""
        self._adjacency[link.a][link.b] = link
        self._adjacency[link.b][link.a] = link
        self._dirty = True
        self._links_cache = None
        self._state_cache = {}
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The link joining ``a`` and ``b``."""
        try:
            return self._adjacency[a][b]
        except KeyError:
            raise NetworkError("no link {}<->{}".format(a, b))

    def neighbours(self, node: str) -> List[str]:
        """Directly connected nodes."""
        if node not in self._adjacency:
            raise NetworkError("unknown node {}".format(node))
        return list(self._adjacency[node])

    def links(self) -> List[Link]:
        """All links, each once.

        The list is cached until the next :meth:`add_link` — callers must
        treat it as read-only.
        """
        cached = self._links_cache
        if cached is None:
            cached = []
            for node, peers in self._adjacency.items():
                for peer, link in peers.items():
                    if node < peer:
                        cached.append(link)
            self._links_cache = cached
        return cached

    # -- routing -----------------------------------------------------------

    def _recompute(self) -> None:
        # One epoch key per distinct link state; a revisited state (flap
        # back up, partition heal) reuses its first-hop tables AND its
        # materialised-route cache — both are pure functions of the key,
        # and the shared route cache only ever grows entries valid for
        # that same state.
        state = tuple((link.up, link.latency)
                      for link in self.links())
        cached = self._state_cache.get(state)
        if cached is None:
            cached = self._state_cache[state] = (
                {node: self._dijkstra(node) for node in self.nodes}, {})
        self._paths, self._route_cache = cached
        self._dirty = False

    def _dijkstra(self, source: str) -> Dict[str, Optional[str]]:
        """First-hop table from ``source`` (cost = sum of link latencies)."""
        dist: Dict[str, float] = {source: 0.0}
        first_hop: Dict[str, Optional[str]] = {source: None}
        heap: List[Tuple[float, str, Optional[str]]] = [(0.0, source, None)]
        visited = set()
        while heap:
            cost, node, hop = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            first_hop[node] = hop
            for peer, link in self._adjacency[node].items():
                if peer in visited or not link.up:
                    continue
                new_cost = cost + link.latency
                if new_cost < dist.get(peer, float("inf")):
                    dist[peer] = new_cost
                    heapq.heappush(
                        heap, (new_cost, peer, hop if hop else peer))
        return first_hop

    def invalidate_routes(self) -> None:
        """Force route recomputation (call after link state changes)."""
        self._dirty = True

    def path(self, src: str, dst: str) -> List[Link]:
        """The ordered links from ``src`` to ``dst``.

        Routes are materialised once per (src, dst) pair and served from a
        cache until :meth:`invalidate_routes`; callers must treat the list
        as read-only.  Unreachable pairs are cached too, so a partition
        costs one walk per pair rather than one per packet.
        """
        if self._dirty:
            self._recompute()
        cached = self._route_cache.get((src, dst), _MISS)
        if cached is not _MISS:
            if cached is None:
                raise RoutingError("no route {}->{}".format(src, dst))
            return cached
        if src not in self._adjacency or dst not in self._adjacency:
            raise RoutingError("unknown endpoint {}->{}".format(src, dst))
        if src == dst:
            self._route_cache[(src, dst)] = []
            return self._route_cache[(src, dst)]
        links: List[Link] = []
        node = src
        guard = len(self.nodes) + 1
        while node != dst:
            hop = self._paths[node].get(dst)
            if hop is None:
                self._route_cache[(src, dst)] = None
                raise RoutingError("no route {}->{}".format(src, dst))
            links.append(self._adjacency[node][hop])
            node = hop
            guard -= 1
            if guard <= 0:
                raise RoutingError(
                    "routing loop computing {}->{}".format(src, dst))
        self._route_cache[(src, dst)] = links
        return links

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of nominal link latencies along the route."""
        return sum(link.latency for link in self.path(src, dst))

    def hops(self, src: str, dst: str) -> int:
        """Number of links on the route."""
        return len(self.path(src, dst))


# -- builders ----------------------------------------------------------------

def lan(env: Environment, hosts: int, switch: str = "switch",
        prefix: str = "host", latency: float = 0.0002,
        bandwidth: float = 1e9, seed: int = 0) -> Topology:
    """A switched LAN: ``hosts`` hosts hanging off one switch."""
    if hosts < 1:
        raise NetworkError("a LAN needs at least one host")
    streams = RandomStreams(seed)
    topo = Topology(env)
    topo.add_node(switch)
    for i in range(hosts):
        topo.add_link("{}{}".format(prefix, i), switch,
                      latency=latency, bandwidth=bandwidth,
                      rng=streams.stream("lan-link-{}".format(i)))
    return topo


def wan(env: Environment, sites: int, hosts_per_site: int = 2,
        site_latency: float = 0.02, site_bandwidth: float = 1e7,
        lan_latency: float = 0.0002, lan_bandwidth: float = 1e9,
        jitter: float = 0.0, loss: float = 0.0,
        seed: int = 0) -> Topology:
    """A WAN: per-site LANs whose routers form a full mesh of WAN links.

    Node naming: routers are ``site<i>.router``; hosts ``site<i>.host<j>``.
    """
    if sites < 1:
        raise NetworkError("a WAN needs at least one site")
    streams = RandomStreams(seed)
    topo = Topology(env)
    for i in range(sites):
        router = "site{}.router".format(i)
        topo.add_node(router)
        for j in range(hosts_per_site):
            topo.add_link("site{}.host{}".format(i, j), router,
                          latency=lan_latency, bandwidth=lan_bandwidth,
                          rng=streams.stream("lan-{}-{}".format(i, j)))
    for i in range(sites):
        for k in range(i + 1, sites):
            topo.add_link("site{}.router".format(i),
                          "site{}.router".format(k),
                          latency=site_latency, bandwidth=site_bandwidth,
                          jitter=jitter, loss=loss,
                          rng=streams.stream("wan-{}-{}".format(i, k)))
    return topo


def star(env: Environment, leaves: int, hub: str = "hub",
         latency: float = 0.005, bandwidth: float = 1e8,
         seed: int = 0) -> Topology:
    """A star of ``leaves`` nodes around a hub."""
    streams = RandomStreams(seed)
    topo = Topology(env)
    topo.add_node(hub)
    for i in range(leaves):
        topo.add_link("leaf{}".format(i), hub,
                      latency=latency, bandwidth=bandwidth,
                      rng=streams.stream("star-{}".format(i)))
    return topo


def dumbbell(env: Environment, left: int, right: int,
             bottleneck_bandwidth: float = 1e6,
             bottleneck_latency: float = 0.01,
             edge_bandwidth: float = 1e8,
             edge_latency: float = 0.001,
             seed: int = 0) -> Topology:
    """Two access clusters joined by one bottleneck link (for QoS tests)."""
    streams = RandomStreams(seed)
    topo = Topology(env)
    topo.add_link("routerL", "routerR",
                  latency=bottleneck_latency,
                  bandwidth=bottleneck_bandwidth,
                  rng=streams.stream("bottleneck"))
    for i in range(left):
        topo.add_link("left{}".format(i), "routerL",
                      latency=edge_latency, bandwidth=edge_bandwidth,
                      rng=streams.stream("left-{}".format(i)))
    for i in range(right):
        topo.add_link("right{}".format(i), "routerR",
                      latency=edge_latency, bandwidth=edge_bandwidth,
                      rng=streams.stream("right-{}".format(i)))
    return topo


def line(env: Environment, length: int, latency: float = 0.005,
         bandwidth: float = 1e8, seed: int = 0) -> Topology:
    """A chain n0 - n1 - ... - n(length-1), for multi-hop routing tests."""
    if length < 2:
        raise NetworkError("a line needs at least two nodes")
    streams = RandomStreams(seed)
    topo = Topology(env)
    for i in range(length - 1):
        topo.add_link("n{}".format(i), "n{}".format(i + 1),
                      latency=latency, bandwidth=bandwidth,
                      rng=streams.stream("line-{}".format(i)))
    return topo
