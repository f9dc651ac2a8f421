"""Portholes-style asynchronous awareness digests (paper §3.3.2).

Portholes (Dourish & Bly) supported *asynchronous* awareness across a
distributed work group: periodic low-fidelity summaries of colleagues'
activity rather than a continuous event stream.  :class:`DigestService`
batches awareness events per interval and delivers one digest per
subscriber per period — trading freshness for load, the asynchronous point
in the space-time matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.awareness.events import AwarenessBus, AwarenessEvent
from repro.errors import ReproError
from repro.obs.metrics import Counter
from repro.sim import Environment


class Digest:
    """One period's summary of activity."""

    __slots__ = ("period_start", "period_end", "events", "actors",
                 "artefacts")

    def __init__(self, period_start: float, period_end: float,
                 events: List[AwarenessEvent]) -> None:
        self.period_start = period_start
        self.period_end = period_end
        self.events = list(events)
        self.actors = sorted({event.actor for event in events})
        self.artefacts = sorted({event.artefact for event in events})

    @property
    def activity_count(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return "<Digest [{:.1f}, {:.1f}) events={}>".format(
            self.period_start, self.period_end, self.activity_count)


class DigestService:
    """Periodically condenses bus traffic into per-subscriber digests."""

    def __init__(self, env: Environment, bus: AwarenessBus,
                 interval: float = 60.0) -> None:
        if not interval > 0:  # also rejects NaN
            raise ReproError("interval must be positive")
        self.env = env
        self.bus = bus
        self.interval = interval
        self._pending: List[AwarenessEvent] = []
        self._subscribers: Dict[str, Callable[[Digest], None]] = {}
        self.counters = Counter()
        bus.subscribe("__digest__", self._collect,
                      event_filter=lambda name, event: True)
        self.process = env.process(self._run())

    def subscribe(self, name: str,
                  callback: Callable[[Digest], None]) -> None:
        """Receive one digest per interval (empty periods are skipped)."""
        self._subscribers[name] = callback

    def _collect(self, event: AwarenessEvent) -> None:
        self._pending.append(event)

    def _run(self):
        while True:
            period_start = self.env.now
            yield self.env.timeout(self.interval)
            if not self._pending:
                continue
            digest = Digest(period_start, self.env.now, self._pending)
            self._pending = []
            for name, callback in self._subscribers.items():
                filtered = [event for event in digest.events
                            if event.actor != name]
                if not filtered:
                    continue
                self.counters.incr("digests")
                callback(Digest(digest.period_start, digest.period_end,
                                filtered))
