"""Media spaces: always-on audio/video connecting distributed workplaces.

§3.3.2: *"a range of multimedia systems have also been developed with the
intent of forming distributed shared media spaces across a user
community... Perhaps the best known example is the experiment at Xerox
PARC linking two coffee rooms with a shared video wall."*  Plus Cruiser's
*cruises* (brief video calls past a sequence of offices) and RAVE/
Portholes-style *glances*.

A :class:`MediaSpace` manages camera/monitor nodes at workplaces and the
connections between them:

* **video wall** — a standing bidirectional link between two common
  areas (the Portland experiment);
* **glance** — a short one-way look into a colleague's office, subject
  to their accessibility setting (reciprocity optional);
* **cruise** — a sequence of short glances (Cruiser's virtual hallway);
* **office share** — a long-lived two-way link between two offices.

Connections carry real simulated video via group/stream bindings when a
network is attached, and always publish awareness events, so being
looked at is visible — the reciprocity CSCW insisted on.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.awareness.events import AwarenessBus
from repro.errors import ReproError
from repro.net.network import Network
from repro.obs.metrics import Counter
from repro.sim import Environment, Event
from repro.streams.binding import StreamBinding
from repro.streams.media import MediaSink, MediaSource

ACCESSIBLE = "accessible"      # glances allowed
BUSY = "busy"                  # glances refused, calls negotiable
DO_NOT_DISTURB = "do-not-disturb"

GLANCE = "glance"
VIDEO_WALL = "video-wall"
OFFICE_SHARE = "office-share"

#: Bytes in one video frame of a media-space connection.
VIDEO_FRAME_SIZE = 3000


class WorkplaceNode:
    """A camera+monitor installation at someone's workplace."""

    def __init__(self, name: str, host: Optional[str] = None) -> None:
        self.name = name
        self.host = host
        self.accessibility = ACCESSIBLE

    def __repr__(self) -> str:
        return "<WorkplaceNode {} [{}]>".format(self.name,
                                                self.accessibility)


class Connection:
    """A live media connection between two workplace nodes."""

    def __init__(self, connection_id: str, kind: str, source: str,
                 target: str, started_at: float,
                 flows: Optional[List[Tuple[MediaSource,
                                            StreamBinding,
                                            MediaSink]]] = None) -> None:
        self.connection_id = connection_id
        self.kind = kind
        self.source = source
        self.target = target
        self.started_at = started_at
        self.ended_at: Optional[float] = None
        self.flows = flows or []

    @property
    def live(self) -> bool:
        return self.ended_at is None

    def __repr__(self) -> str:
        return "<Connection {} {} {}->{}>".format(
            self.connection_id, self.kind, self.source, self.target)


class MediaSpace:
    """The community's set of nodes and live connections."""

    def __init__(self, env: Environment,
                 network: Optional[Network] = None,
                 glance_duration: float = 8.0,
                 video_rate: float = 12.5) -> None:
        for field, value in (("glance_duration", glance_duration),
                             ("video_rate", video_rate)):
            if not value > 0:  # also rejects NaN
                raise ReproError("{} must be positive: {!r}".format(
                    field, value))
        self.env = env
        self.network = network
        self.awareness = AwarenessBus(env)
        self.glance_duration = glance_duration
        self.video_rate = video_rate
        self.nodes: Dict[str, WorkplaceNode] = {}
        self.connections: List[Connection] = []
        self.counters = Counter()
        # Connection ids and stream ports come from one per-space count:
        # a port picks the handler a frame reaches, so it must not
        # depend on what ran earlier in the process.
        self._ids = itertools.count(1)

    def add_node(self, name: str, host: Optional[str] = None
                 ) -> WorkplaceNode:
        """Install a camera/monitor at a workplace."""
        if name in self.nodes:
            raise ReproError("node {} already exists".format(name))
        if host is not None and self.network is not None:
            self.network.host(host)  # validate / attach
        node = WorkplaceNode(name, host=host)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> WorkplaceNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ReproError("no media-space node named {}".format(name))

    def set_accessibility(self, name: str, level: str) -> None:
        """A person's control over being looked at."""
        if level not in (ACCESSIBLE, BUSY, DO_NOT_DISTURB):
            raise ReproError("unknown accessibility: " + level)
        self.node(name).accessibility = level
        self.awareness.publish(name, name, "accessibility-" + level)

    def live_connections(self) -> List[Connection]:
        return [c for c in self.connections if c.live]

    # -- connection types ----------------------------------------------------------

    def video_wall(self, a: str, b: str) -> Connection:
        """A standing two-way link between common areas (Portland)."""
        self.node(a)
        self.node(b)
        flows = self._make_flows(a, b, bidirectional=True)
        connection = self._connect(VIDEO_WALL, a, b, flows)
        self.counters.incr("video_walls")
        for source, _, _ in flows:
            source.start()
        self.awareness.publish("building", a, "video-wall",
                               detail={"to": b})
        return connection

    def glance(self, looker: str, target: str) -> Event:
        """A brief one-way look into a colleague's workplace.

        Fires with the :class:`Connection` (ended) or ``None`` when the
        target's accessibility refused it.  The target always *learns of*
        the glance — being looked at is never invisible.
        """
        self.node(looker)
        node = self.node(target)
        done = self.env.event()
        self.counters.incr("glances_attempted")
        # Reciprocity: the target is told someone looked, whatever the
        # outcome.
        self.awareness.publish(looker, target, "glance")
        if node.accessibility != ACCESSIBLE:
            self.counters.incr("glances_refused")
            done.succeed(None)
            return done
        self.env.process(self._run_glance(looker, target, done))
        return done

    def cruise(self, looker: str, targets: List[str]) -> Event:
        """Cruiser: glance past a sequence of offices; fires with the
        list of connections that succeeded."""
        if not targets:
            raise ReproError("a cruise needs at least one target")
        done = self.env.event()
        self.env.process(self._run_cruise(looker, list(targets), done))
        return done

    def office_share(self, a: str, b: str) -> Connection:
        """A long-lived two-way link between two offices."""
        node_b = self.node(b)
        self.node(a)
        if node_b.accessibility == DO_NOT_DISTURB:
            raise ReproError(
                "{} is not accepting connections".format(b))
        flows = self._make_flows(a, b, bidirectional=True)
        connection = self._connect(OFFICE_SHARE, a, b, flows)
        self.counters.incr("office_shares")
        for source, _, _ in flows:
            source.start()
        self.awareness.publish(a, b, "office-share")
        return connection

    def hang_up(self, connection: Connection) -> None:
        """End a live connection."""
        if not connection.live:
            return
        connection.ended_at = self.env.now
        for source, _, _ in connection.flows:
            source.stop()
        self.awareness.publish(connection.source, connection.target,
                               "hang-up")

    # -- internals -------------------------------------------------------------------

    def _connect(self, kind: str, source: str, target: str,
                 flows) -> Connection:
        connection = Connection("conn-{}".format(next(self._ids)), kind,
                                source, target, self.env.now, flows=flows)
        self.connections.append(connection)
        return connection

    def _make_flows(self, a: str, b: str, bidirectional: bool):
        """Create real video flows when both ends have network hosts."""
        if self.network is None:
            return []
        host_a = self.nodes[a].host
        host_b = self.nodes[b].host
        if host_a is None or host_b is None or host_a == host_b:
            return []
        flows = []
        pairs = [(host_a, host_b)]
        if bidirectional:
            pairs.append((host_b, host_a))
        for src, dst in pairs:
            binding = StreamBinding(self.network, src, dst,
                                    port=7000 + next(self._ids))
            sink = MediaSink(self.env, dst + "-wall",
                             target_delay=0.2)
            binding.attach_sink(sink)
            source = MediaSource(self.env, src + "-cam",
                                 binding.send_frame,
                                 rate=self.video_rate,
                                 frame_size=VIDEO_FRAME_SIZE)
            flows.append((source, binding, sink))
        return flows

    def _run_glance(self, looker: str, target: str, done: Event):
        flows = self._make_flows(target, looker, bidirectional=False)
        connection = self._connect(GLANCE, looker, target, flows)
        self.counters.incr("glances_granted")
        for source, _, _ in flows:
            source.start(duration=self.glance_duration)
        yield self.env.timeout(self.glance_duration)
        connection.ended_at = self.env.now
        done.succeed(connection)

    def _run_cruise(self, looker: str, targets: List[str], done: Event):
        succeeded = []
        self.counters.incr("cruises")
        for target in targets:
            outcome = yield self.glance(looker, target)
            if outcome is not None:
                succeeded.append(outcome)
        done.succeed(succeeded)
