"""Awareness events and their distribution (Figure 2b).

The paper's alternative to transactional walls: *"information flow between
users enables a social protocol to be established to regulate access to
shared information"*.  An :class:`AwarenessEvent` describes one user action
on a shared artefact; an :class:`AwarenessBus` sends events to
subscribers through pluggable filters, as datagrams over the network, so
loss and partitions act on awareness too; :class:`WorkspaceAwareness`
adapts a shared store so every write becomes an event — giving the
*continuous* notification channel that experiment F2 contrasts with
commit-time visibility.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.concurrency.store import SharedStore
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs.metrics import Counter

#: A bus's port unless given one (a platform gives each session its own).
AWARENESS_PORT = 50
#: Payload bytes of one awareness datagram: actor, artefact, action, time.
EVENT_SIZE = 64

#: Standard action vocabulary (free-form strings are also accepted).
ACTION_EDIT = "edit"
ACTION_JOIN = "join"
ACTION_LEAVE = "leave"
ACTION_SUSPECTED = "suspected"


class AwarenessEvent:
    """One user action made visible to colleagues."""

    __slots__ = ("actor", "artefact", "action", "at", "detail")

    def __init__(self, actor: str, artefact: str, action: str,
                 at: float, detail: Any = None) -> None:
        self.actor = actor
        self.artefact = artefact
        self.action = action
        self.at = at
        self.detail = detail

    def __repr__(self) -> str:
        return "<AwarenessEvent {} {} {} at {:g}>".format(
            self.actor, self.action, self.artefact, self.at)


Subscriber = Callable[[AwarenessEvent], None]
EventFilter = Callable[[str, AwarenessEvent], bool]


def ignore_own_actions(subscriber: str, event: AwarenessEvent) -> bool:
    """Suppress a user's own events (standard groupware hygiene)."""
    return event.actor != subscriber


class AwarenessBus:
    """Publishes awareness events to named subscribers through filters.

    A participant sits at the network host named like it, unless
    ``subscribe`` or ``publish`` is given ``host=``.  ``publish`` runs
    the filters on the subscriptions it finds (one made later, even
    inside a delivery, misses this event) and sends one datagram of
    :data:`EVENT_SIZE` bytes to each host with a match, none if there is
    none; the callbacks there run when it arrives, and a subscriber
    that raises surfaces from ``env.run()`` as itself.  Benches use the
    delivered timestamps to measure *notification time*.
    """

    def __init__(self, network: Network, port: int = AWARENESS_PORT) -> None:
        self.network = network
        self.env = network.env
        self.port = port
        #: name -> (host, filter, callback) per subscription.
        self._subscribers: Dict[str, List[Tuple[str, EventFilter,
                                                Subscriber]]] = {}
        self.counters = Counter()
        self.delivered_log: List[Tuple[float, str, AwarenessEvent]] = []

    def subscribe(self, name: str, callback: Subscriber,
                  event_filter: Optional[EventFilter] = None,
                  host: Optional[str] = None) -> None:
        """Register ``name`` to receive events passing ``event_filter``."""
        at = self.network.host(name if host is None else host)
        at.on_packet(self.port, self._on_packet)
        self._subscribers.setdefault(name, []).append(
            (at.name, event_filter or ignore_own_actions, callback))

    def publish(self, actor: str, artefact: str, action: str,
                detail: Any = None,
                host: Optional[str] = None) -> AwarenessEvent:
        """Emit an event; matching subscribers receive it on arrival."""
        event = AwarenessEvent(actor, artefact, action, self.env.now,
                               detail)
        self.counters.incr("published")
        # Per host, who is to see it: the filters run now, so a
        # subscription made before the packet lands does not count.
        audience: Dict[str, List[Tuple[str, Subscriber]]] = {}
        for name, entries in self._subscribers.items():
            for at, event_filter, callback in entries:
                if event_filter(name, event):
                    audience.setdefault(at, []).append((name, callback))
        if audience:
            sender = self.network.host(actor if host is None else host)
            for at, deliveries in audience.items():
                sender.send(at, (event, deliveries), EVENT_SIZE, self.port)
        return event

    def _on_packet(self, packet: Packet) -> None:
        event, deliveries = packet.payload
        for name, callback in deliveries:
            self.counters.incr("delivered")
            self.delivered_log.append((self.env.now, name, event))
            callback(event)


class WorkspaceAwareness:
    """Adapts a shared store so every write publishes an awareness event.

    This is the mechanism of Figure 2b: user actions on the shared space
    flow continuously to colleagues instead of being masked until commit.
    A write is published from the host its writer is named after.
    """

    def __init__(self, store: SharedStore, bus: AwarenessBus) -> None:
        self.store = store
        self.bus = bus
        store.subscribe(self._on_write)

    def _on_write(self, key: str, value: Any, version: int,
                  writer: str) -> None:
        self.bus.publish(writer, key, ACTION_EDIT,
                         detail={"version": version})

    def watch(self, user: str, callback: Subscriber,
              artefact: Optional[str] = None) -> None:
        """Subscribe ``user`` to workspace changes (optionally one key)."""
        if artefact is None:
            self.bus.subscribe(user, callback)
        else:
            self.bus.subscribe(
                user, callback,
                event_filter=lambda name, event:
                event.artefact == artefact and event.actor != name)
