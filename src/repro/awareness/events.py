"""Awareness events and their distribution (Figure 2b).

The paper's alternative to transactional walls: *"information flow between
users enables a social protocol to be established to regulate access to
shared information"*.  An :class:`AwarenessEvent` describes one user action
on a shared artefact; an :class:`AwarenessBus` distributes events to
subscribers through pluggable filters; :class:`WorkspaceAwareness` adapts a
shared store so every write becomes an event — giving the *continuous*
notification channel that experiment F2 contrasts with commit-time
visibility.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.concurrency.store import SharedStore
from repro.obs.metrics import Counter
from repro.sim import Environment

#: Standard action vocabulary (free-form strings are also accepted).
ACTION_EDIT = "edit"
ACTION_VIEW = "view"
ACTION_JOIN = "join"
ACTION_LEAVE = "leave"
ACTION_MOVE = "move"
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

    Delivery is optionally delayed (``latency``) to model the network hop;
    benches use the delivered timestamps to measure *notification time*.
    A delayed delivery is one timeout whose callback hands the event
    over: one queued event and no process, so a subscriber that raises
    surfaces from ``env.run()`` as itself.

    A subscriber may ``subscribe`` from inside a delivery: ``publish``
    walks the subscriptions as they stood when it was called, so a
    subscription made during a delivery does not receive the event being
    delivered and does receive the next.
    """

    def __init__(self, env: Environment, latency: float = 0.0) -> None:
        if not latency >= 0:
            raise ValueError(
                "latency must be non-negative: {!r}".format(latency))
        self.env = env
        self.latency = latency
        self._subscribers: Dict[str, List[Tuple[EventFilter,
                                                Subscriber]]] = {}
        self.counters = Counter()
        self.delivered_log: List[Tuple[float, str, AwarenessEvent]] = []

    def subscribe(self, name: str, callback: Subscriber,
                  event_filter: Optional[EventFilter] = None) -> None:
        """Register ``name`` to receive events passing ``event_filter``."""
        self._subscribers.setdefault(name, []).append(
            (event_filter or ignore_own_actions, callback))

    def publish(self, actor: str, artefact: str, action: str,
                detail: Any = None) -> AwarenessEvent:
        """Emit an event; matching subscribers receive it after latency."""
        event = AwarenessEvent(actor, artefact, action, self.env.now,
                               detail)
        self.counters.incr("published")
        # A copy: a subscriber may subscribe from inside a delivery.
        subscriptions = [(name, entry)
                         for name, entries in self._subscribers.items()
                         for entry in entries]
        for name, (event_filter, callback) in subscriptions:
            if not event_filter(name, event):
                continue
            if self.latency > 0:
                self.env.timeout(self.latency, (name, callback, event)
                                 ).callbacks.append(self._arrive)
            else:
                self._finish(name, callback, event)
        return event

    def _arrive(self, timer) -> None:
        self._finish(*timer.value)

    def _finish(self, name: str, callback: Subscriber,
                event: AwarenessEvent) -> None:
        self.counters.incr("delivered")
        self.delivered_log.append((self.env.now, name, event))
        callback(event)


class WorkspaceAwareness:
    """Adapts a shared store so every write publishes an awareness event.

    This is the mechanism of Figure 2b: user actions on the shared space
    flow continuously to colleagues instead of being masked until commit.
    """

    def __init__(self, env: Environment, store: SharedStore,
                 bus: Optional[AwarenessBus] = None,
                 latency: float = 0.0) -> None:
        self.env = env
        self.store = store
        self.bus = bus or AwarenessBus(env, latency=latency)
        store.subscribe(self._on_write)

    def _on_write(self, key: str, value: Any, version: int,
                  writer: str) -> None:
        self.bus.publish(writer or "unknown", key, ACTION_EDIT,
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
