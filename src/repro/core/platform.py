"""The cooperative platform facade: the paper's pieces, assembled.

:class:`CooperativePlatform` stands up a complete simulated deployment —
WAN of sites, ODP runtime, QoS broker — and exposes the
cooperation services the paper argues ODP must provide: sessions with
floor control and awareness, ordered group channels, OT shared documents
and QoS-managed media streams.  The examples and several benches drive
everything through this one entry point.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.awareness.events import WorkspaceAwareness
from repro.concurrency.ot import OTClientSite, OTServerSite
from repro.errors import ReproError, SessionError
from repro.groups.group import ProcessGroup
from repro.net.network import Network
from repro.net.topology import lan, wan
from repro.node.runtime import ODPRuntime
from repro.qos.broker import QoSBroker
from repro.qos.monitor import QoSMonitor
from repro.qos.params import QoSParameters
from repro.sessions.floor import FLOOR_POLICIES, FloorPolicy
from repro.sessions.session import Session
from repro.sim import Environment
from repro.streams.binding import StreamBinding
from repro.streams.media import MediaSink, MediaSource


class SharedDocument:
    """An OT-replicated document: one sequencer, one client per member."""

    def __init__(self, platform: "CooperativePlatform", name: str,
                 server_node: str, members: List[str],
                 initial: str = "", port: Optional[int] = None) -> None:
        self.name = name
        if port is None:
            port = platform.allocate_port(span=2)
        self.server = OTServerSite(
            platform.network.host(server_node), initial=initial,
            port=port)
        self.clients: Dict[str, OTClientSite] = {}
        for member in members:
            client = OTClientSite(platform.network.host(member),
                                  server_node, initial=initial,
                                  port=port)
            self.server.register(member)
            self.clients[member] = client

    def client(self, member: str) -> OTClientSite:
        try:
            return self.clients[member]
        except KeyError:
            raise SessionError(
                "{} has no replica of {}".format(member, self.name))

    def add_member(self, platform: "CooperativePlatform",
                   member: str) -> OTClientSite:
        """Late join: initialise a replica from the current snapshot."""
        if member in self.clients:
            raise SessionError(
                "{} already has a replica of {}".format(member,
                                                        self.name))
        text, revision = self.server.snapshot()
        client = OTClientSite(platform.network.host(member),
                              self.server.host.name, initial=text,
                              port=self.server.port, revision=revision)
        self.server.register(member)
        self.clients[member] = client
        return client

    @property
    def converged(self) -> bool:
        """True when every replica equals the sequencer's text."""
        canonical = self.server.core.text
        return all(client.text == canonical
                   for client in self.clients.values()) and not any(
                       client.core.has_unacked
                       for client in self.clients.values())

    def texts(self) -> Dict[str, str]:
        return {member: client.text
                for member, client in self.clients.items()}


#: The window, in seconds, over which a media flow's QoS is monitored.
MEDIA_MONITOR_WINDOW = 1.0


class MediaFlow:
    """A QoS-managed media stream: source, binding, monitor, sink."""

    def __init__(self, source: MediaSource, binding: StreamBinding,
                 sink: MediaSink, monitor: QoSMonitor) -> None:
        self.source = source
        self.binding = binding
        self.sink = sink
        self.monitor = monitor

    def start(self, duration: Optional[float] = None) -> None:
        self.source.start(duration)


class CooperativeSession:
    """A session wired to a group channel and workspace awareness."""

    def __init__(self, platform: "CooperativePlatform", session: Session,
                 group: ProcessGroup,
                 workspace: WorkspaceAwareness) -> None:
        self.platform = platform
        self.session = session
        self.group = group
        self.workspace = workspace

    @property
    def members(self) -> List[str]:
        return list(self.session.members)

    def broadcast(self, member: str, payload, size: int = 0):
        """Ordered group broadcast from a member."""
        return self.group.endpoint(member).broadcast(payload, size=size)

    def shared_document(self, name: str, initial: str = "",
                        server_node: Optional[str] = None
                        ) -> SharedDocument:
        """Create an OT document replicated at every member."""
        server = server_node or self.members[0]
        return SharedDocument(self.platform, name, server, self.members,
                              initial=initial)


class CooperativePlatform:
    """One simulated deployment of the whole middleware."""

    def __init__(self, sites: int = 3, hosts_per_site: int = 2,
                 site_latency: float = 0.02, seed: int = 0,
                 topology: str = "wan") -> None:
        self.env = Environment()
        self.seed = seed
        if topology == "wan":
            self.topology = wan(self.env, sites=sites,
                                hosts_per_site=hosts_per_site,
                                site_latency=site_latency, seed=seed)
            self._hosts = ["site{}.host{}".format(i, j)
                           for i in range(sites)
                           for j in range(hosts_per_site)]
        elif topology == "lan":
            self.topology = lan(self.env, hosts=sites * hosts_per_site,
                                seed=seed)
            self._hosts = ["host{}".format(i)
                           for i in range(sites * hosts_per_site)]
        else:
            raise ReproError("unknown topology kind: " + topology)
        self.network = Network(self.env, self.topology)
        self.runtime = ODPRuntime(self.network,
                                  registry_node=self._hosts[0])
        self.qos = QoSBroker(self.network)
        self.sessions: Dict[str, CooperativeSession] = {}
        self._ports = iter(range(100, 10000))

    def host_names(self) -> List[str]:
        """All host node names, site-major order."""
        return list(self._hosts)

    def allocate_port(self, span: int = 1) -> int:
        """Reserve ``span`` consecutive port numbers; returns the first."""
        first = next(self._ports)
        for _ in range(span - 1):
            next(self._ports)
        return first

    def run(self, until=None):
        """Advance the simulation."""
        return self.env.run(until)

    # -- sessions -----------------------------------------------------------------

    def create_session(self, name: str, members: List[str],
                       floor: Optional[str] = "fcfs",
                       ordering: str = "causal",
                       awareness_latency: float = 0.01,
                       **session_kwargs) -> CooperativeSession:
        """A session whose members are joined to an ordered group.

        ``awareness_latency`` has no effect (``bench/`` passes it): the
        awareness hop is the network's, and this would count it twice."""
        if name in self.sessions:
            raise SessionError("session {} already exists".format(name))
        for member in members:
            if member not in self._hosts:
                raise SessionError("unknown host " + member)
        floor_policy = self._make_floor(floor, members)
        session = Session(self.network, name, floor=floor_policy,
                          port=self.allocate_port(), **session_kwargs)
        group = ProcessGroup(self.network, name, ordering=ordering,
                             port=next(self._ports))
        for member in members:
            session.join(member)
            group.join(member)
        workspace = WorkspaceAwareness(session.store, session.awareness)
        cooperative = CooperativeSession(self, session, group, workspace)
        self.sessions[name] = cooperative
        return cooperative

    # -- media ---------------------------------------------------------------------

    def open_media_flow(self, src: str, dst: str, rate: float = 25.0,
                        frame_size: int = 4000,
                        desired: Optional[QoSParameters] = None
                        ) -> MediaFlow:
        """A stream binding with a QoS reservation and monitoring."""
        desired = desired or QoSParameters(
            throughput=rate * frame_size * 8 * 1.1,
            latency=0.2, jitter=0.1, loss=0.05)
        contract = self.qos.negotiate(src, dst, desired)
        monitor = QoSMonitor(self.env, contract,
                             window=MEDIA_MONITOR_WINDOW,
                             expected_frames_per_window=rate
                             * MEDIA_MONITOR_WINDOW)
        binding = StreamBinding(self.network, src, dst,
                                port=self.allocate_port(),
                                contract=contract, monitor=monitor)
        sink = MediaSink(self.env, dst + "-sink")
        binding.attach_sink(sink)
        source = MediaSource(self.env, src + "-source",
                             binding.send_frame, rate=rate,
                             frame_size=frame_size)
        return MediaFlow(source, binding, sink, monitor)

    # -- internals ----------------------------------------------------------------

    def _make_floor(self, floor: Optional[str],
                    members: List[str]) -> Optional[FloorPolicy]:
        """A floor lives at the first member's host (the chair's)."""
        if floor is None:
            return None
        if floor not in FLOOR_POLICIES:
            raise SessionError("unknown floor policy: " + floor)
        if not members:
            raise SessionError("a floor needs a member to live at")
        return FLOOR_POLICIES[floor](self.network, members[0])
